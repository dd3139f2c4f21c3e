"""The four benchmark workloads.

Each workload has a set-up, which parses the machine files it needs
and builds from the seed the fixed list of items one pass runs, and a
runner for one item.  The runner calls the library only through module
attributes looked up at call time, so the traced run sees every call.
Each operation (a stream_step call, one instance's differential, one
CLI verdict) is timed on its own, as a span of speed.SAMPLER marks, and
checked against references.py;
one that raises or fails its check is counted as failed, and the pass
goes on.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import random
import sys
import traceback
from types import SimpleNamespace

import references
import speed

MODULES = ("buchi", "cli", "continuity_regular", "lookahead", "loops",
           "oneway", "oracle", "stream_eval", "textio", "twoway")


def import_library():
    """Import omegacont afresh (dropping any loaded copy), so that the
    set-up time includes the import a user pays on each command."""
    for name in [n for n in sys.modules
                 if n == "omegacont" or n.startswith("omegacont.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"omegacont.{m}")
                              for m in MODULES})


def load_machine(lib, name):
    with open(lib.textio.fixture_path(name), encoding="utf-8") as f:
        return lib.textio.parse_spec(f.read()).machine


class Tally:
    """Spans and outcomes of the operations of one or more passes."""

    def __init__(self):
        self.attempted = 0
        self.spans = []  # (start, end) marks of the operations that returned
        self.failed = 0
        self.failures = []

    def record(self, span):
        self.attempted += 1
        self.spans.append(span)

    def raised(self, what):
        self.attempted += 1
        self.fail(f"{what}: {traceback.format_exc(limit=3)}")

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _timed(fn, *args, **kwargs):
    """fn's result and its span: the sampler's marks before and after."""
    m0 = speed.SAMPLER.mark()
    result = fn(*args, **kwargs)
    return result, (m0, speed.SAMPLER.mark())


# ---------------------------------------------------------------------------
# differential

# Tier-1's differential tests draw random_instance(0..199).  A pass runs
# a fixed slice of them: one instance costs 0.08 to 3.2 s, so a seeded
# draw of the ~16 a pass can afford would change the work per seed by
# about 30 %.  The seed only orders the pass.
INSTANCE_SEEDS = tuple(range(16))
FIXTURES_1WAY = ("t_c", "t_nc", "t_inf")
ORACLE_BOUND = 2


def differential_setup(lib, seed, smoke):
    items = [(name, load_machine(lib, name)) for name in FIXTURES_1WAY]
    seeds = INSTANCE_SEEDS[:1] if smoke else INSTANCE_SEEDS
    items += [(f"random_instance({s})", lib.oracle.random_instance(s))
              for s in seeds]
    random.Random(seed).shuffle(items)
    return items


def differential_run(lib, item, tally):
    name, t = item
    try:
        verdicts, span = _timed(_differential_op, lib, t)
    except Exception:
        tally.raised(name)
        return
    tally.record(span)
    problems = _differential_problems(lib, name, verdicts)
    if problems:
        tally.fail(f"{name}: {'; '.join(problems)}")


def _differential_op(lib, t):
    verdicts = {}
    for variant in ("cont", "ucont"):
        exact = lib.oneway.decide_continuity(t, variant)
        oracle = lib.oracle.brute_force_check(t, variant, ORACLE_BOUND)
        recheck = None
        if isinstance(oracle, lib.oracle.BadPairFound):
            recheck = lib.oracle.recheck_bad_pair(t, oracle.pair)
        verdicts[variant] = (exact, oracle, recheck)
    return verdicts


def _differential_problems(lib, name, verdicts):
    """The paper's laws: a bad pair disproves (uniform) continuity, and
    a function that is not continuous is not uniformly continuous."""
    problems = []
    for variant, (exact, oracle, recheck) in verdicts.items():
        if isinstance(oracle, lib.oracle.BadPairFound):
            if exact is None:
                problems.append(f"{variant}: bad pair, exact says yes")
            if recheck is not True:
                problems.append(f"{variant}: bad pair fails recheck")
    if verdicts["cont"][0] is not None and verdicts["ucont"][0] is None:
        problems.append("not continuous but uniformly continuous")
    expected = references.EXPECTED_CONTINUOUS.get(name)
    if expected is not None and (verdicts["cont"][0] is None) != expected:
        problems.append(f"continuity verdict is not {expected}")
    return problems


# ---------------------------------------------------------------------------
# stream-1way

# n is drawn once per stratum, so every seed covers short to long
# histories in the same proportions; the tails alternate between c and d.
STRATA_1WAY = tuple((20 + 25 * i, 45 + 25 * i) for i in range(12))
TAIL_1WAY = 5


def stream_1way_setup(lib, seed, smoke):
    t_c = load_machine(lib, "t_c")
    rng = random.Random(seed)
    strata = ((2, 4), (3, 6)) if smoke else STRATA_1WAY
    words = []
    for i, (lo, hi) in enumerate(strata):
        n = rng.randrange(lo, hi)
        words.append("a" * n + "cd"[i % 2] * TAIL_1WAY)
    rng.shuffle(words)
    return [(t_c, w) for w in words]


def stream_1way_run(lib, item, tally):
    _stream(lib, *item, tally, _check_1way)


def _check_1way(word, consumed, committed):
    expected = references.t_c_output(word)
    if not expected.startswith(committed):
        return f"committed {committed!r} is not a prefix of {expected!r}"
    if consumed == word and committed != expected:
        return f"committed {committed!r} at the end, not {expected!r}"
    return None


# ---------------------------------------------------------------------------
# stream-2way

# Fixed for every seed: the cost of one dbl symbol ranges from 2 ms to
# 11 s with the letters, so a seeded draw would change the work per
# seed.  The short inputs run twice per pass so a pass has over 100
# stream_step calls; the seed only orders the pass.
SHORT_REPEATS = 2
# The # of aab# is the step on which the exact route overflows its
# 20 000-state cap (three times) and stream_step falls back to sampling
# extensions with eval_up_2way.  At the default extension bound 4 that
# sampling alone takes about 30 s; bound 3 keeps it near 1 s.  (ab#,
# ba# and aa# stay on the exact route.)
FALLBACK_2WAY = ("aab#", {"ext_bound": 3})


def stream_2way_setup(lib, seed, smoke):
    dbl = load_machine(lib, "dbl")
    letters = sorted(dbl.alphabet)
    short = [("".join(w), {}) for k in ((1,) if smoke else (1, 2))
             for w in itertools.product(letters, repeat=k)]
    words = short * (1 if smoke else SHORT_REPEATS)
    words.append(("a#", {}) if smoke else FALLBACK_2WAY)
    random.Random(seed).shuffle(words)
    return [(dbl, w, options) for w, options in words]


def stream_2way_run(lib, item, tally):
    dbl, word, options = item
    _stream(lib, dbl, word, tally, _check_2way, **options)


def _check_2way(word, consumed, committed):
    for out in references.dbl_completions(consumed, len(committed)):
        if out != committed:
            return (f"committed {committed!r} is not a prefix of the "
                    f"completion output {out!r}")
    expected = references.dbl_determined(consumed)
    if consumed == word and committed != expected:
        return f"committed {committed!r} at the end, not {expected!r}"
    return None


def _stream(lib, machine, word, tally, check, **options):
    """One operation per stream_step call, checked after each call;
    options are passed to stream_step."""
    s = lib.stream_eval.stream_start(machine)
    for k, a in enumerate(word, start=1):
        try:
            (s, _), span = _timed(lib.stream_eval.stream_step, s, a,
                                  **options)
        except Exception:
            tally.raised(f"{word}[:{k}]")
            return
        tally.record(span)
        problem = check(word, word[:k], "".join(map(str, s.committed)))
        if problem:
            tally.fail(f"{word}[:{k}]: {problem}")


# ---------------------------------------------------------------------------
# witness

TWO_WAY = ("dbl", "j", "f_inf", "t_c_2way")
# Verdicts per machine and pass: the cheap look-ahead machines repeat so
# that their verdicts are most of the samples behind op_ms_p50.
WITNESS_REPEATS = {"dbl": 1, "j": 1, "f_inf": 4, "t_c_2way": 4}
SMOKE_WITNESS = ("f_inf", "t_c_2way")


def witness_setup(lib, seed, smoke):
    names = SMOKE_WITNESS if smoke else TWO_WAY
    for name in names:
        load_machine(lib, name)  # fail in set-up on an unreadable file
    items = [(name, variant, lib.textio.fixture_path(name))
             for name in names
             for _ in range(1 if smoke else WITNESS_REPEATS[name])
             for variant in ("cont", "ucont")]
    random.Random(seed).shuffle(items)
    return items


def witness_run(lib, item, tally):
    name, variant, path = item
    cli = lib.cli
    search = cli.search_witness
    verdicts = []

    def recorded(*args, **kwargs):
        verdicts.append(search(*args, **kwargs))
        return verdicts[-1]

    cli.search_witness = recorded  # to read pref_exact off the verdict
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code, span = _timed(cli.main, [f"check-{variant}", path])
    except Exception:
        tally.raised(f"{name} {variant}")
        return
    finally:
        cli.search_witness = search
    tally.record(span)
    problem = _witness_problem(name, variant, code, verdicts)
    if problem:
        tally.fail(f"{name} {variant}: {problem}")


def _witness_problem(name, variant, code, verdicts):
    expected = references.EXPECTED_EXIT[(name, variant)]
    if code != expected:
        return f"exit code {code}, expected {expected}"
    exact = references.EXPECTED_PREF_EXACT.get((name, variant))
    if exact is not None:
        if len(verdicts) != 1:
            return f"{len(verdicts)} witness searches, expected 1"
        if verdicts[0].pref_exact != exact:
            return f"pref_exact {verdicts[0].pref_exact}, expected {exact}"
    return None


# name -> (set-up returning the items of one pass, runner of one item)
WORKLOADS = {
    "differential": (differential_setup, differential_run),
    "stream-1way": (stream_1way_setup, stream_1way_run),
    "stream-2way": (stream_2way_setup, stream_2way_run),
    "witness": (witness_setup, witness_run),
}
