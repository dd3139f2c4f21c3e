"""The benchmark under perfbench/ reads names from the library: traced
functions, stream_step, cli.search_witness and the fields of
the results.  Its self-check runs every workload on tiny inputs, so a
renamed or reshaped name fails here rather than in a benchmark run.

The self-check runs on a copy of the checkout, so the outputs it writes
stay out of the source tree."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "out")
    for tree in ("perfbench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/selfcheck.py"], cwd=tmp_path,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]

