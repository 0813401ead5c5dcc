"""Correctness oracle: every check of every preset against its golden record.

``golden.json`` holds, for each committed preset, the CLI exit code and the
name, verdict, value and threshold of every check in its ``report.json``,
recorded when the benchmark was defined.  Three outcomes fail by design and
are expected, not failures: AC-2b (``conservation_sine``
``l2_conservation``), AC-8a (``riemann_entropy`` ``kruzhkov_residual``) and
``upjump_adversarial``, whose three checks must all fail.  A run fails when
a verdict flips either way or a value moves beyond round-off; exit code 1
alone is not a failure.

To record the golden file again, which only an argued change of behaviour
justifies, run from the repository root:

    python3 perfbench/oracle.py --record
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"

# every committed preset and the CLI verb that runs it
PRESETS = {
    "breaking_gaussian": "breaking",
    "conservation_sine": "simulate",
    "dispersion_mode1": "simulate",
    "peakon_transport": "simulate",
    "l1_stability": "verify",
    "riemann_entropy": "verify",
    "upjump_adversarial": "verify",
    "viscosity_sweep": "sweep",
    "convergence_peakon": "sweep",
    "wave_peakon": "wave",
    "wave_cusp": "wave",
}

# a value agrees with its golden record within round-off
REL_TOL = 1e-9
ABS_TOL = 1e-13

CHECK_KEYS = ("check_name", "pass", "value", "threshold")


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def record_of(exit_code: int, report: dict) -> dict:
    """The part of one preset run that the oracle compares."""
    return {"exit_code": exit_code,
            "checks": [{k: c[k] for k in CHECK_KEYS} for c in report["checks"]]}


def compare(golden: dict, exit_code: int, report: dict) -> list[str]:
    """Disagreements of one preset run with its golden record; [] if none."""
    got = record_of(exit_code, report)
    problems = []
    if got["exit_code"] != golden["exit_code"]:
        problems.append(f"exit code {got['exit_code']} != "
                        f"{golden['exit_code']}")
    names = [c["check_name"] for c in got["checks"]]
    want_names = [c["check_name"] for c in golden["checks"]]
    if names != want_names:
        return problems + [f"checks {names} != {want_names}"]
    for c, g in zip(got["checks"], golden["checks"]):
        name = g["check_name"]
        if c["pass"] != g["pass"]:
            problems.append(f"{name}: verdict {c['pass']} != {g['pass']}")
        for key in ("value", "threshold"):
            if not agrees(c[key], g[key]):
                problems.append(f"{name}: {key} {c[key]!r} != {g[key]!r}")
    return problems


def agrees(a, b) -> bool:
    """Equal structure and strings; numbers equal within round-off."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(agrees, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(agrees(a[k], b[k]) for k in a)
    return a == b


def record() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from fwlab import cli

    out = ROOT / ".perfbench_out"
    golden = {}
    try:
        for preset, verb in PRESETS.items():
            code = cli.main([verb, "--preset", preset,
                             "--out", str(out / preset)])
            with open(out / preset / "report.json") as fh:
                golden[preset] = record_of(code, json.load(fh))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/oracle.py --record")
    record()
