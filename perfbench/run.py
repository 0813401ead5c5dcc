"""fwlab benchmark: committed presets through ``fwlab.cli.main``, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The load is a closed loop with a single
caller: a pass runs the workload's presets back to back in a fresh
interpreter (perfbench/worker.py), and the next pass starts when it ends.
The only threads besides the caller's are the resolution sweep's own pool.
The seed only permutes the preset order inside a multi-preset workload; the
presets stay fixed because the oracle's golden record is tied to them.

--trace 0 measures passes for about S seconds and reports the end-to-end
metrics:
  wall_s       wall seconds of one pass, from the first preset call to the
               last output file written
  cpu_s        user + system seconds of that pass, pool threads included
  peak_rss_mb  peak resident memory of the fresh process that ran the pass
  setup_s      seconds from a fresh interpreter to fwlab.cli imported, the
               median of at least SETUP_SAMPLES interpreter starts
The first three are the upper quartile over the run's passes, not the
median.  On a shared host whose speed alternates between an uncontended
level and a contended one about 1.45 times slower, the share of fast passes
varies from minute to minute, while the contended level is steady: over a
15-minute trace of 25-second windows on a 2-CPU host, the window median of
the pass times spread 0.24 (quartile distance over median) and the window
upper quartile 0.17.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of perfbench/tracing.py, plus trace.overhead_s, the traced minus
the untraced wall time.

Every preset run is checked against perfbench/golden.json (perfbench/
oracle.py).  A run that raises or disagrees with it counts in "failed";
failed / attempted is the fail ratio.  The last line of output is the result
object; the line before it records the seed, the preset order, every pass
and the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"

# why each workload: see BENCHMARK.json
WORKLOADS = {
    "breaking": ("breaking_gaussian",),
    "shock": ("peakon_transport", "l1_stability", "viscosity_sweep",
              "convergence_peakon"),
    "entropy": ("riemann_entropy", "upjump_adversarial"),
    "torus_waves": ("conservation_sine", "dispersion_mode1", "wave_peakon",
                    "wave_cusp"),
}

# counts the traced run must reproduce exactly; a probe that misses a call
# path shows here
TRACE_COUNTS = {
    "breaking": {"strong.steps": 2572, "kernels.solve_calls": 10288,
                 "trajectory.record_calls": 2573},
}

SETUP_SAMPLES = 8
SPAWN_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "FWLAB_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(args) -> tuple[float, dict | None]:
    """Run worker.py with args; return (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=SPAWN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): "
                         f"{' '.join(cmd)}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run_pass(presets, index: int, trace: bool) -> tuple[float, dict]:
    out = WORK / f"pass{index}"
    try:
        return spawn(["--out", str(out), *(["--trace"] if trace else []),
                      *presets])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def upper_quartile(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if ".solve_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    return "count"


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_sha256() -> str:
    """Digest of the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fwlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def l3_cache() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            pass
    return None


def provenance(worker: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "fwlab_file": worker["fwlab_file"],
        **worker["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "sweep_workers": worker["sweep_workers"],
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "l3_cache": l3_cache(),
    }


def measure(presets, seconds: float, trace: bool):
    """One run; returns (metrics, passes, set-up samples)."""
    spawn([])  # warm-up: bytecode compiled and libraries in the page cache
    if trace:
        passes = [run_pass(presets, index, traced)[1]
                  for index, traced in enumerate((False, True))]
        plain, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return metrics, passes, []
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup, result = run_pass(presets, len(passes), False)
        setups.append(setup)
        passes.append(result)
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn([])[0])
    metrics = {name: upper_quartile([p[name] for p in passes])
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return metrics, passes, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fwlab" / "cli.py").is_file():
        print(f"perfbench: no fwlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # a terminated run still stops its worker (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    presets = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(presets)
    try:
        metrics, passes, setups = measure(presets, args.seconds,
                                          bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for preset, found in p["problems"].items():
            print(f"perfbench: {preset}: {'; '.join(found)}", file=sys.stderr)
    if args.trace:
        expected = TRACE_COUNTS.get(args.workload, {})
        missed = {k: (metrics[k], v) for k, v in expected.items()
                  if metrics[k] != v}
        if missed:
            print(f"perfbench: traced counts (got, want) {missed}",
                  file=sys.stderr)
            failed += passes[-1]["attempted"] - passes[-1]["failed"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "order": presets,
        "passes": [{k: v for k, v in p.items() if k != "layers"}
                   for p in passes],
        "setup_s": setups,
        "provenance": provenance(passes[0]),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
