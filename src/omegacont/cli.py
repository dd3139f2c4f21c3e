"""Command line front end.

Exit codes: 0 continuous / true / accepted, 1 not continuous / witness
found / rejected, 2 unknown up to the given bound, 64 usage error,
65 bad input data.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .buchi import BuchiAutomaton, closure, member_up, trim
from .continuity_regular import NotContinuous, SearchBounds, search_witness
from .loops import NotIdempotent, NotInPrefDomain, decompose, rho
from .oneway import (EpsilonLoopOutput, Transducer, decide_continuity,
                     domain_automaton, eval_up, functionality_check,
                     trim_transducer)
from .oracle import (BadPairFound, brute_force_check, random_instance,
                     recheck_bad_pair)
from .stream_eval import (DeadInput, mismatch_verdict, stream_start,
                          stream_step)
from .textio import (ParseError, ValidationError, format_up, format_word,
                     parse_spec, parse_up, parse_word, serialize)
from .twoway import Output, TwoWayPLA, TwoWayTransducer, eval_up_2way
from .words import up_equal


def _load(path: str):
    with open(path, encoding="utf-8") as f:
        return parse_spec(f.read()).machine


def _bounds(text: str) -> SearchBounds:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--bound takes three lengths: L1,L2,L3")
    return SearchBounds(*parts)


def _data_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 65


def _proj(w) -> str:
    # annotated symbols are (letter, class) pairs; show the letters
    letters = [s[0] if isinstance(s, tuple) else s for s in w]
    return "".join(str(c) for c in letters) if letters else "_"


def _load_function(path: str):
    """_load, rejecting a one-way machine that has two images of one
    input: every one-way verdict, value and commit assumes one."""
    m = _load(path)
    cex = functionality_check(m) if isinstance(m, Transducer) else None
    if cex is not None and not up_equal(cex.output1, cex.output2):
        raise ValueError(f"not functional: {format_up(cex.word)} has the "
                         f"two images {format_up(cex.output1)} and "
                         f"{format_up(cex.output2)}")
    return m


def _witness_verdict(m, args, bounds) -> int:
    """Bounded witness search on a two-way machine: 1 with the witness
    found, 2 when the bounds are exhausted."""
    got = search_witness(m, args.variant, bounds, state_cap=args.state_cap,
                         ext_bound=args.ext_bound)
    if isinstance(got, NotContinuous):
        w = got.witness
        print("not continuous")
        print(f"  u1 = {_proj(w.u1)}")
        print(f"  u2 = {_proj(w.u2)}")
        print(f"  u3 = {_proj(w.u3)} / u3' = {_proj(w.u3p)}")
        print(f"  mismatch at position {w.mismatch_position} ({w.variant})")
        return 1
    b = got.bounds
    print(f"no witness up to bounds "
          f"{b.max_len_u1},{b.max_len_u2},{b.max_len_u3}")
    return 2


def cmd_check(args) -> int:
    m = _load_function(args.file)
    if isinstance(m, Transducer):
        w = decide_continuity(m, args.variant)
        if w is None:
            print("continuous")
            return 0
        print("not continuous")
        print(f"  limit = {format_up(w.limit)}")
        print(f"  u = {format_word(w.u)}  v = {format_word(w.v)}")
        print(f"  mismatch at position {w.mismatch_pos}")
        return 1
    if isinstance(m, (TwoWayTransducer, TwoWayPLA)):
        return _witness_verdict(m, args, SearchBounds())
    return _data_error("continuity needs a transducer, not an acceptor")


def cmd_eval(args) -> int:
    m = _load_function(args.file)
    x = parse_up(args.upword)
    if isinstance(m, BuchiAutomaton):
        return _data_error("an acceptor has no output; use member")
    if isinstance(m, Transducer):
        try:
            y = eval_up(m, x)
        except EpsilonLoopOutput:
            return _data_error(
                "accepted, but every accepting run has a finite image")
    else:
        got = eval_up_2way(m, x)
        y = got.value if isinstance(got, Output) else None
    if y is None:
        print("not in domain")
        return 1
    print(format_up(y))
    return 0


def cmd_member(args) -> int:
    m = _load(args.file)
    x = parse_up(args.upword)
    if isinstance(m, BuchiAutomaton):
        ok = member_up(m, x)
    elif isinstance(m, Transducer):
        ok = member_up(domain_automaton(m), x)
    else:
        ok = isinstance(eval_up_2way(m, x), Output)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_stream(args) -> int:
    m = _load_function(args.file)
    if isinstance(m, BuchiAutomaton):
        return _data_error("streaming needs a transducer")
    if isinstance(m, Transducer) and not args.force:
        if decide_continuity(m, "cont") is not None:
            print("error: machine is not continuous; streaming would "
                  "starve (use --force to run anyway)", file=sys.stderr)
            return 1
    s = stream_start(m)
    for line in sys.stdin:
        for a in line.split() if " " in line else line.strip():
            s, emitted = stream_step(s, a, state_cap=args.state_cap,
                                     ext_bound=args.ext_bound)
            if args.raw:
                print("".join(map(str, emitted)), end="", flush=True)
            else:
                print(f"{a} -> {format_word(emitted)}", flush=True)
    if args.raw:
        print()
    return 0


def cmd_mismatch(args) -> int:
    m = _load(args.file)
    if isinstance(m, BuchiAutomaton):
        return _data_error("mismatch needs a transducer")
    got, exact = mismatch_verdict(m, parse_word(args.u), parse_word(args.v),
                                  state_cap=args.state_cap,
                                  ext_bound=args.ext_bound)
    if got:
        print("yes")
        return 0
    if not exact:
        # only bounded extensions were sampled
        print(f"unknown up to ext-bound {args.ext_bound}")
        return 2
    print("no")
    return 1


def cmd_witness(args) -> int:
    m = _load(args.file)
    if not isinstance(m, (TwoWayTransducer, TwoWayPLA)):
        return _data_error("witness search needs a two-way transducer")
    bounds = _bounds(args.bound)
    if args.verify is not None:
        bounds = replace(bounds, verify_n=args.verify)
    return _witness_verdict(m, args, bounds)


def _loop_layer(args, fn):
    """fn(m, u1, u2, u3) on the command's plain two-way machine and
    words, with the loop layer's exceptions told in CLI word format."""
    m = _load(args.file)
    if not isinstance(m, TwoWayTransducer):
        raise ValueError(f"{args.command} needs a plain two-way transducer")
    u1, u2, u3 = map(parse_word, (args.u1, args.u2, args.u3))
    try:
        return fn(m, u1, u2, u3)
    except NotIdempotent:
        raise ValueError(f"u2 = {format_word(u2)} is not an idempotent "
                         "loop in context") from None
    except NotInPrefDomain:
        raise ValueError(f"the run on u1 u2 u3 = {format_word(u1 + u2 + u3)}"
                         " does not reach the right end") from None


def cmd_rho(args) -> int:
    print(format_word(_loop_layer(args, rho)))
    return 0


def cmd_decompose(args) -> int:
    d = _loop_layer(args, decompose)
    for i, tr in enumerate(d.traversals):
        print(f"traversal {i}: {tr.kind}")
    for i, (comp, anchor) in enumerate(zip(d.components, d.anchors)):
        print(f"component {i}: traversals {list(comp)} anchor {anchor} "
              f"emits {format_word(d.tr_outputs[i])}")
    return 0


def cmd_trim(args) -> int:
    m = _load(args.file)
    if isinstance(m, BuchiAutomaton):
        print(serialize(trim(m)), end="")
        return 0
    if isinstance(m, Transducer):
        print(serialize(trim_transducer(m)), end="")
        return 0
    return _data_error("trim supports acceptors and one-way transducers")


def cmd_closure(args) -> int:
    m = _load(args.file)
    if not isinstance(m, BuchiAutomaton):
        return _data_error("closure needs an acceptor")
    print(serialize(closure(m)), end="")
    return 0


def cmd_oracle(args) -> int:
    m = _load_function(args.file)
    if isinstance(m, BuchiAutomaton):
        return _data_error("the oracle needs a transducer")
    got = brute_force_check(m, args.variant, args.bound)
    if not isinstance(got, BadPairFound):
        print(f"none up to bound {got.bound}")
        return 2
    # a reported pair is only a candidate until a direct recheck of its
    # images confirms it
    p = got.pair
    confirmed = recheck_bad_pair(m, p)
    print("bad pair found" if confirmed
          else "candidate bad pair, not confirmed by recheck")
    print(f"  u = {format_word(p.u)}  v = {format_word(p.v)}")
    print(f"  w = {format_word(p.w)}  z = {format_up(p.z)}")
    print(f"  w' = {format_word(p.wp)}  z' = {format_up(p.zp)}")
    print(f"  evidence: {p.evidence}")
    return 1 if confirmed else 2


def cmd_gen(args) -> int:
    profile = tuple(int(x) for x in args.profile.split(","))
    if len(profile) != 4:
        raise ValueError("--profile takes states,inputs,outputs,maxout")
    print(serialize(random_instance(args.seed, profile)), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one in the process (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(
        prog="omegacont",
        description="Continuity tools for transducers over infinite words")
    p.add_argument("--state-cap", type=int, default=12,
                   help="size gate for two-way to Buchi conversions")
    p.add_argument("--ext-bound", type=int, default=4,
                   help="UP-extension length for bounded fallbacks")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        return sp

    for name, variant in (("check-cont", "cont"), ("check-ucont", "ucont")):
        sp = add(name, cmd_check, help=f"decide {variant}inuity"
                 if name == "check-cont" else "decide uniform continuity")
        sp.add_argument("file")
        sp.set_defaults(variant=variant)

    sp = add("eval", cmd_eval, help="evaluate on a UP word")
    sp.add_argument("file")
    sp.add_argument("upword")

    sp = add("member", cmd_member,
             help="language / domain membership; on a one-way "
             "transducer, the accepted language, which counts a word "
             "whose accepting runs all have a finite image (eval tells "
             "such a word apart)")
    sp.add_argument("file")
    sp.add_argument("upword")

    sp = add("stream", cmd_stream,
             help="run the streaming machine on stdin symbols")
    sp.add_argument("file")
    sp.add_argument("--force", action="store_true",
                    help="stream a machine even if it is not continuous")
    sp.add_argument("--raw", action="store_true",
                    help="emit only the committed symbols")

    sp = add("mismatch", cmd_mismatch,
             help="can some domain extension of U contradict output V?")
    sp.add_argument("file")
    sp.add_argument("u")
    sp.add_argument("v")

    sp = add("witness", cmd_witness, help="bounded discontinuity witness "
             "search (two-way); plain-machine cont is settled by theorem")
    sp.add_argument("file")
    sp.add_argument("--variant", choices=("cont", "ucont"), default="cont")
    sp.add_argument("--bound", default="3,3,3",
                    help="max lengths L1,L2,L3 for u1,u2,u3")
    sp.add_argument("--verify", type=int, default=None,
                    help="re-check the witness at pump counts 1..N")

    for name, fn in (("rho", cmd_rho), ("decompose", cmd_decompose)):
        sp = add(name, fn, help=f"{name} of an idempotent loop triple")
        sp.add_argument("file")
        sp.add_argument("u1")
        sp.add_argument("u2")
        sp.add_argument("u3")

    sp = add("trim", cmd_trim, help="drop useless states")
    sp.add_argument("file")

    sp = add("closure", cmd_closure,
             help="acceptor of the topological closure")
    sp.add_argument("file")

    sp = add("oracle", cmd_oracle, help="brute-force bad pair search")
    sp.add_argument("file")
    sp.add_argument("--variant", choices=("cont", "ucont"), default="cont")
    sp.add_argument("--bound", type=int, default=2)

    sp = add("gen", cmd_gen, help="generate a random functional transducer")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--profile", default="4,2,2,2",
                    help="states,inputs,outputs,maxout")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 64
    try:
        return args.func(args)
    except DeadInput as e:
        return _data_error(f"no domain word extends {e}")
    except (ParseError, ValidationError, ValueError, OSError) as e:
        return _data_error(str(e))


if __name__ == "__main__":
    sys.exit(main())
