"""One pass of a workload in a fresh interpreter.

run.py starts it as

    python3 perfbench/worker.py --out DIR [--trace] PRESET ...

It imports ``fwlab.cli`` and prints ``ready``; run.py times set-up up to that
line.  It then runs the presets back to back through ``fwlab.cli.main``,
checks every report against the oracle and prints one JSON line.  With no
presets it stops after ``ready``, as a set-up sample.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent


def run_pass(presets, out: Path, tracer=None) -> dict:
    """Run presets in order, writing each one's outputs under out/<preset>.

    The clock runs from the first call to the last output file written.
    cpu_s is user plus system time of the whole process, sweep pool threads
    included; peak_rss_mb is the process's peak resident memory so far.
    """
    from fwlab import cli

    golden = oracle.load_golden()
    codes, problems = {}, {}
    if tracer is not None:
        tracer.install()
    try:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for preset in presets:
            try:
                codes[preset] = cli.main([oracle.PRESETS[preset], "--preset",
                                          preset, "--out", str(out / preset)])
            except Exception:  # a preset that raises is a failed run
                problems[preset] = [traceback.format_exc()]
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for preset, code in codes.items():
        try:
            with open(out / preset / "report.json") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems[preset] = [f"report.json unreadable: {exc}"]
            continue
        found = oracle.compare(golden[preset], code, report)
        if found:
            problems[preset] = found
    result = {
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": len(presets),
        "failed": len(problems),
        "problems": problems,
        "bytes_written": sum(f.stat().st_size for f in out.rglob("*")
                             if f.is_file()),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(wall)
        result["layers"]["cli.bytes_written"] = result["bytes_written"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("presets", nargs="*")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from fwlab import cli
    print("ready", flush=True)
    if not args.presets:
        return 0
    import numpy
    import scipy
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    result = run_pass(args.presets, args.out, tracer)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["sweep_workers"] = cli._max_workers()
    result["fwlab_file"] = os.path.relpath(cli.__file__, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
