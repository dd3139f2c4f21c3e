"""Hand-written references the benchmark checks the library against.

Nothing here calls omegacont: each expected value is derived by hand
from the shipped machine files or from the paper's laws, so a defect in
the library cannot make its own check pass.
"""

# Exit codes of `omegacont check-cont` / `check-ucont` at the default
# bounds (3,3,3), state cap (12) and extension bound (4).
#   dbl doubles each #-closed block.  It is continuous, but the bounded
#   search can only say "no witness" (2).  It is not uniformly
#   continuous (1): #^n a# ... and #^n b# ... share n input symbols,
#   yet their images differ at position 0, because empty blocks output
#   nothing.
#   j and f_inf are not continuous, so not uniformly continuous either.
#   t_c_2way is continuous; the bounded search finds no witness for
#   either variant.
EXPECTED_EXIT = {
    ("dbl", "cont"): 2, ("dbl", "ucont"): 1,
    ("j", "cont"): 1, ("j", "ucont"): 1,
    ("f_inf", "cont"): 1, ("f_inf", "ucont"): 1,
    ("t_c_2way", "cont"): 2, ("t_c_2way", "ucont"): 2,
}

# Verdicts whose Pref(dom) oracle must be exact: dbl has 3 states, so
# its domain automaton is built within the default state cap.
EXPECTED_PREF_EXACT = {("dbl", "cont"): True}

# Continuity of the one-way fixtures.  t_c doubles the a-prefix before a
# c-tail and copies it before a d-tail: continuous.  t_nc and t_inf are
# the textbook discontinuous machines.
EXPECTED_CONTINUOUS = {"t_c": True, "t_nc": False, "t_inf": False}


def t_c_output(word: str) -> str:
    """Output of t_c on a^n c^k (a^2n c^k) or a^n d^k (a^n d^k), k >= 1.

    Every committed buffer of a stream over `word` must be a prefix of
    this, and once the whole input is consumed the buffer must equal
    it, because the tail letter fixes the image."""
    n = len(word) - len(word.lstrip("a"))
    tail = word[n:]
    if not tail or tail.strip(tail[0]) or tail[0] not in "cd":
        raise ValueError(f"not of the form a^n c^k or a^n d^k: {word!r}")
    return "a" * (2 * n if tail[0] == "c" else n) + tail


def dbl_output(word: str) -> str:
    """Output of dbl on the #-closed blocks of `word`, each written
    twice (the #s themselves are not output); a trailing unclosed block
    contributes nothing."""
    blocks = word.split("#")[:-1]
    return "".join(b + b for b in blocks)


def dbl_completions(consumed: str, length: int):
    """Outputs, cut to `length`, of two domain words extending
    `consumed`: one closes the open block with a and repeats a#, the
    other does the same with b."""
    reps = length + 1
    return [dbl_output(consumed + (c + "#") * reps)[:length] for c in "ab"]


def dbl_determined(consumed: str) -> str:
    """What every domain extension of `consumed` agrees on: the closed
    blocks doubled, then the open block once."""
    return dbl_output(consumed) + consumed.split("#")[-1]
