"""omegacont benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
src/.  One process runs one workload, single-threaded, as a closed loop
with one caller.  It sets the workload up several times (import,
machine parsing, input generation) and keeps the median as setup_s,
then runs whole passes of the workload's fixed operation list until S
seconds have gone, and prints, as the last line, one JSON object with
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with every
time scaled to a reference host speed (see speed.py).  --trace 1
runs the set-up and one pass both untraced and with every function of
layers.json wrapped (see spans.py), reports the per-layer metrics, and
writes the per-layer table and the spans under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9


def measure(workload, seed, seconds, smoke=False):
    """End-to-end metrics: (tally, metrics).  Times are scaled to the
    reference speed of speed.py.  A full garbage collection, untimed,
    precedes each set-up and each item."""
    setup, run = workloads.WORKLOADS[workload]
    sampler = speed.SAMPLER
    sampler.start()
    try:
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            gc.collect()
            m0 = sampler.mark()
            lib = workloads.import_library()
            items = setup(lib, seed, smoke)
            setups.append((m0, sampler.mark()))
        tally = workloads.Tally()
        t0 = time.perf_counter()
        while True:
            for item in items:
                gc.collect()  # so no item pays for its predecessors' garbage
                run(lib, item, tally)
            if smoke or time.perf_counter() - t0 >= seconds:
                break
    finally:
        sampler.stop()
    d = [sampler.scaled(*span) for span in tally.spans] or [float("nan")]
    metrics = {
        "setup_s": (statistics.median(sampler.scaled(*span)
                                      for span in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "op_ms_p50": (1e3 * statistics.median(d), "ms"),
        "op_ms_gmean": (1e3 * statistics.geometric_mean(d), "ms"),
        "ops_per_s": (len(tally.spans) / sum(d), "1/s"),
    }
    return tally, metrics


def trace(workload, seed, smoke=False):
    """Per-layer metrics of one set-up plus one pass: (tally, metrics,
    table).  After a warm-up set-up, the set-up and the pass run once
    untraced and then once traced; the tally counts both.  The
    difference of the two wall times is the tracing overhead; it is
    only as exact as the run-to-run noise of one pass."""
    setup, run = workloads.WORKLOADS[workload]
    lib = workloads.import_library()
    recorder = spans.SpanRecorder()
    tally = workloads.Tally()

    def one_pass():
        t0 = time.perf_counter()
        for item in setup(lib, seed, smoke):
            run(lib, item, tally)
        return time.perf_counter() - t0

    setup(lib, seed, smoke)  # warm-up
    untraced = one_pass()
    recorder.install()
    try:
        wall = one_pass()
    finally:
        recorder.uninstall()

    table = recorder.layer_table()
    metrics = {}
    for name in spans.TRACED:
        row = table[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.raised"] = (row["raised"], "count")
    for name, (value, base) in recorder.derived(table).items():
        metrics[name] = (value, spans.DERIVED_UNITS[name])
        metrics[f"{name}.base"] = (base, "count")
    self_sum = sum(row["self_s"] for row in table.values())
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.unattributed_s"] = (wall - self_sum, "s")
    metrics["trace.spans"] = (len(recorder.start), "count")

    OUT.mkdir(exist_ok=True)
    stem = f"smoke-{workload}" if smoke else workload
    recorder.write(OUT / f"spans-{stem}.bin")
    report = {"workload": workload, "seed": seed, "layers": table,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (OUT / f"layers-{stem}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return tally, metrics, table


def format_table(table, metrics):
    lines = [f"{'function':44} {'calls':>9} {'self_s':>10} {'raised':>7}"]
    for name, row in table.items():
        lines.append(f"{name:44} {row['calls']:9d} {row['self_s']:10.4f} "
                     f"{row['raised']:7d}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s", ".raised")):
            lines.append(f"{name:44} {value:>20.6g} {unit}")
    return "\n".join(lines)


def result_line(tally, metrics):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not use_source_tree():
        print(f"error: no omegacont sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics, table = trace(args.workload, args.seed)
        print(format_table(table, metrics), file=sys.stderr)
    else:
        tally, metrics = measure(args.workload, args.seed, args.seconds)
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(result_line(tally, metrics))
    return 0


def use_source_tree():
    """Put src/ first on the import path; False if it has no library."""
    if not (SRC / "omegacont" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


if __name__ == "__main__":
    sys.exit(main())
