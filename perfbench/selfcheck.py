"""Self-check of the benchmark, run from the root of a source checkout:

    python3 perfbench/selfcheck.py

1. Smoke: runs every workload on tiny inputs, untraced and traced, and
   prints every metric name with its unit and value.  It fails if an
   operation fails, or if the metrics reported differ from those
   BENCHMARK.json lists (names and units; per_layer follows
   layers.json).
2. The checks bite: with one hand-written reference corrupted per
   workload, the same smoke run must report failed operations.

Exits 0 when both parts pass, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from unittest import mock

import references
import run
import workloads

SEED = 0


def _t_c_output_undoubled(word):
    # forgets that t_c doubles the a-prefix before a c-tail
    return word


def _dbl_output_once(word):
    # writes each block once instead of twice
    return "".join(word.split("#")[:-1])


CORRUPTIONS = {
    "differential": mock.patch.dict(references.EXPECTED_CONTINUOUS,
                                    {"t_c": False}),
    "stream-1way": mock.patch.object(references, "t_c_output",
                                     _t_c_output_undoubled),
    "stream-2way": mock.patch.object(references, "dbl_output",
                                     _dbl_output_once),
    "witness": mock.patch.dict(references.EXPECTED_EXIT,
                               {("f_inf", "cont"): 0}),
}


def smoke(spec):
    ok = True
    for name in workloads.WORKLOADS:
        tally, metrics = run.measure(name, SEED, 0, smoke=True)
        traced, layer_metrics, _ = run.trace(name, SEED, smoke=True)
        print(f"== {name}: attempted {tally.attempted}, failed "
              f"{tally.failed}; traced: attempted {traced.attempted}, "
              f"failed {traced.failed}")
        for metric, (value, unit) in {**metrics, **layer_metrics}.items():
            print(f"  {metric:48} {value:>14.6g} {unit}")
        for failure in tally.failures + traced.failures:
            print(f"  FAILED {failure}")
        for kind, got in (("end_to_end", metrics),
                          ("per_layer", layer_metrics)):
            # BENCHMARK.json must list exactly the metrics reported,
            # with their units; per_layer follows layers.json
            want = {m["name"]: m["unit"] for m in spec[kind]}
            have = {m: unit for m, (_, unit) in got.items()}
            for label, names in (("MISSING", want.keys() - have.keys()),
                                 ("UNLISTED", have.keys() - want.keys())):
                if names:
                    print(f"  {label} {kind} metrics: "
                          f"{', '.join(sorted(names))}")
                    ok = False
            for m in sorted(want.keys() & have.keys()):
                if want[m] != have[m]:
                    print(f"  UNIT of {m}: {have[m]}, listed {want[m]}")
                    ok = False
        ok = ok and tally.failed == 0 and traced.failed == 0
    return ok


def checks_bite():
    ok = True
    for name, corruption in CORRUPTIONS.items():
        with corruption:
            tally, _ = run.measure(name, SEED, 0, smoke=True)
        bites = tally.failed > 0
        print(f"== {name} with a corrupted reference: {tally.failed} of "
              f"{tally.attempted} operations failed "
              f"({'ok' if bites else 'NOT DETECTED'})")
        ok = ok and bites
    return ok


def main():
    if not run.use_source_tree():
        print(f"error: no omegacont sources under {run.SRC}", file=sys.stderr)
        return 1
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    ok = smoke(spec)
    ok = checks_bite() and ok
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
