"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def test_self_time_with_overlapping_thread_children():
    # a sweep command whose two pool-thread runs overlap on [3, 6]; each run
    # solves once, and the two solves overlap on [4.5, 5]
    tracer = Tracer()
    tracer.spans[:] = [
        Span(0, None, "cli", "command", 0.0, 10.0, None),
        Span(1, 0, "shock", "run", 1.0, 6.0, None),
        Span(2, 0, "shock", "run", 3.0, 9.0, None),
        Span(3, 1, "kernels", "solve", 4.0, 5.0, (2000, False)),
        Span(4, 2, "kernels", "solve", 4.5, 7.0, (4000, False)),
    ]
    m = tracer.summary(wall_s=10.0)
    assert m["cli.self_s"] == 2.0  # 10 minus the union [1, 9] of its runs
    # run 1 owns [1, 4] + [5, 6], run 2 owns [3, 4.5] + [7, 9]; the union is
    # 6.5 s, where the naive sum of the run durations is 11 s, above wall
    assert m["shock.self_s"] == 6.5
    assert m["shock.share_pct"] == 65.0
    assert m["kernels.self_s"] == m["kernels.solve_s"] == 3.0
    assert m["kernels.solve_calls"] == 2
    assert m["kernels.solve_us.n2000"] == 1e6
    assert m["kernels.solve_us.n4000"] == 2.5e6
    assert m["kernels.solve_us.n8000"] == 0.0


def test_oracle_accepts_round_off_and_by_design_failures():
    golden = oracle.load_golden()["riemann_entropy"]
    report = {"checks": copy.deepcopy(golden["checks"])}
    report["checks"][1]["value"] *= 1 + 1e-12
    assert golden["exit_code"] == 1
    assert oracle.compare(golden, 1, report) == []


def test_oracle_rejects_perturbed_value_and_flipped_verdict():
    golden = oracle.load_golden()["riemann_entropy"]
    perturbed = {"checks": copy.deepcopy(golden["checks"])}
    perturbed["checks"][1]["value"] *= 1 + 1e-6
    assert oracle.compare(golden, 1, perturbed)
    for i in range(len(golden["checks"])):  # flipped either way
        flipped = {"checks": copy.deepcopy(golden["checks"])}
        flipped["checks"][i]["pass"] = not flipped["checks"][i]["pass"]
        assert oracle.compare(golden, 1, flipped)
    assert oracle.compare(golden, 0, {"checks": golden["checks"]})


def test_golden_records_the_by_design_failures():
    golden = oracle.load_golden()
    assert set(golden) == set(oracle.PRESETS)

    def verdicts(preset):
        return {c["check_name"]: c["pass"] for c in golden[preset]["checks"]}

    assert verdicts("conservation_sine")["l2_conservation"] is False
    assert verdicts("riemann_entropy")["kruzhkov_residual"] is False
    assert not any(verdicts("upjump_adversarial").values())


def _traced_pass(out):
    tracer = Tracer()
    presets = ("convergence_peakon", "wave_peakon", "dispersion_mode1")
    return worker.run_pass(presets, out, tracer), tracer


def test_traced_counts_repeat_exactly(tmp_path):
    first, tracer = _traced_pass(tmp_path / "a")
    second, _ = _traced_pass(tmp_path / "b")
    assert first["failed"] == second["failed"] == 0

    def counts(result):
        return {k: v for k, v in result["layers"].items()
                if isinstance(v, int)}

    assert counts(first) == counts(second)
    assert counts(first)["shock.runs"] == 3
    assert counts(first)["strong.steps"] == 1000
    # the sweep's pool-thread runs hang off the sweep command span
    by_id = {s.sid: s for s in tracer.spans}
    runs = [s for s in tracer.spans if (s.layer, s.op) == ("shock", "run")]
    assert {(by_id[s.parent].layer, by_id[s.parent].op) for s in runs} == \
        {("cli", "command")}
    from fwlab import cli, shock
    assert not hasattr(cli.run_fv, "__wrapped__")
    assert cli.run_fv is shock.run_fv


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result, _ = _traced_pass(tmp_path)
    traced = set(result["layers"]) | {"trace.wall_s", "trace.overhead_s"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert run.unit(m["name"]) == m["unit"], m["name"]
