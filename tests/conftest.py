import json

import numpy as np
import pytest

# the acceptance sub-checks of this session, in the order they ran
_AC_ROWS = []


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def pytest_runtest_logreport(report):
    if report.when == "teardown":
        for name, rows in report.user_properties:
            if name == "ac_rows":
                _AC_ROWS.extend(rows)


def pytest_sessionfinish(session):
    """Write the AC ledger, one row (id, pass, value, target, detail) per
    acceptance sub-check run, to ac_table.json in pytest's cache directory
    (.pytest_cache/d/fwlab/); without the cache plugin, nowhere."""
    cache = getattr(session.config, "cache", None)
    if _AC_ROWS and cache is not None:
        path = cache.mkdir("fwlab") / "ac_table.json"
        path.write_text(json.dumps(_AC_ROWS, indent=2) + "\n")
