"""Outside-in span recorder for the traced benchmark run.

Each traced public function is wrapped, and the wrapper is bound to
every name, in every loaded omegacont module, whose value is that
function object (or set on the class, for methods).  Module globals are
looked up at call time, so calls inside a module and imports done
inside function bodies go through the wrapper too.  No library file
changes.

A span records the function, its start and end (time.perf_counter),
the enclosing span and whether the call raised.  Spans stay in memory,
in flat arrays, until the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are
strictly nested because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = json.loads((Path(__file__).with_name("layers.json")).read_text())

# "module.function" or "module.Class.method", in layers.json order
TRACED = [f"{mod}.{fn}" for mod, fns in LAYERS["layers"].items()
          for fn in fns]
DERIVED_UNITS = {
    "stream_eval.commit_ratio": "ratio",
    "loops.rho.useful_ratio": "ratio",
    "twoway.domain_nba.states_built": "states",
    "twoway.state_cap_exceeded": "count",
    "continuity_regular.pref_exact_ratio": "ratio",
}

_CONVERSIONS = ("twoway.domain_nba", "twoway.two_way_to_nba")


def _library_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "omegacont"
                                  or name.startswith("omegacont."))]


class SpanRecorder:
    """Records spans of the TRACED functions while installed."""

    def __init__(self):
        self.fn = array("H")       # index into TRACED
        self.parent = array("l")   # enclosing span, -1 at top level
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = []
        self._undo = []
        # propagation of one exception through nested spans is counted
        # once, where it starts
        self._last_raise = (-1, 0)
        self.cap_exceeded = 0
        self.committed = 0
        self.nba_states = 0
        self.verdicts = 0
        self.verdicts_exact = 0

    # -- installing ------------------------------------------------------

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m
                for m in _library_modules()}
        hooks = {"twoway.domain_nba": self._on_domain_nba,
                 "continuity_regular.search_witness": self._on_verdict,
                 "stream_eval.stream_step": self._on_stream_step}
        for idx, name in enumerate(TRACED):
            mod_name, *path = name.split(".")
            owner = mods[mod_name]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                orig = cls.__dict__[path[1]]
                self._bind(cls, path[1], self._wrap(idx, orig, None))
                continue
            orig = getattr(owner, path[0])
            wrapper = self._wrap(idx, orig, hooks.get(name))
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._bind(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _bind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx, fn, on_return):
        fns, parents, starts, ends, raised = (
            self.fn, self.parent, self.start, self.end, self.raised)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fns.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            raised.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                raised[i] = 1
                self._note_raise(i, exc)
                raise
            ends[i] = clock()
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- counters read off return values and raises --------------------

    def _note_raise(self, i, exc):
        last_span, last_id = self._last_raise
        propagated = (last_span >= 0 and self.parent[last_span] == i
                      and last_id == id(exc))
        self._last_raise = (i, id(exc))
        if not propagated and type(exc).__name__ == "StateCapExceeded":
            self.cap_exceeded += 1

    def _on_domain_nba(self, nba):
        self.nba_states += len(nba.states)

    def _on_verdict(self, verdict):
        self.verdicts += 1
        self.verdicts_exact += bool(verdict.pref_exact)

    def _on_stream_step(self, result):
        self.committed += len(result[1])

    # -- aggregation -----------------------------------------------------

    def layer_table(self):
        """{traced name: {"calls", "self_s", "total_s", "raised"}}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "raised": 0} for name in TRACED}
        for i in range(n):
            row = table[TRACED[self.fn[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            row["raised"] += self.raised[i]
        return table

    def derived(self, table):
        """Each derived counter with its base."""
        def ratio(num, base):
            return num / base if base else 0.0

        mis = table["stream_eval.mismatch_exists"]["calls"]
        rho = table["loops.rho"]
        nba = table["twoway.domain_nba"]
        conv = set(TRACED.index(c) for c in _CONVERSIONS)
        outermost = sum(
            1 for i in range(len(self.start)) if self.fn[i] in conv
            and (self.parent[i] < 0 or self.fn[self.parent[i]] not in conv))
        return {
            "stream_eval.commit_ratio": (ratio(self.committed, mis), mis),
            "loops.rho.useful_ratio": (
                ratio(rho["calls"] - rho["raised"], rho["calls"]),
                rho["calls"]),
            "twoway.domain_nba.states_built": (
                self.nba_states, nba["calls"] - nba["raised"]),
            "twoway.state_cap_exceeded": (self.cap_exceeded, outermost),
            "continuity_regular.pref_exact_ratio": (
                ratio(self.verdicts_exact, self.verdicts), self.verdicts),
        }

    def write(self, path: Path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"functions": TRACED, "count": len(self.start),
                  "arrays": [["fn", "H"], ["parent", "l"], ["start", "d"],
                             ["end", "d"], ["raised", "b"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.fn, self.parent, self.start, self.end,
                        self.raised):
                arr.tofile(f)
