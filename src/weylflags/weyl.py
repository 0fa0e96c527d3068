"""Exact arithmetic on symmetric groups and their labelled products.

A permutation ``w`` of ``{1, ..., n}`` is stored in one-line notation as a
tuple ``(w(1), ..., w(n))``.  A *multi-permutation* maps embedding labels
(strings) to permutations, each label with its own rank, and models an
element of a finite product of symmetric groups; it serializes as
``{"label": [images]}``.  Its shape maps each label to its rank.

Composition is function composition, ``(u * v)(i) = u(v(i))``, and length
is the inversion count, which agrees with Coxeter length on the simple
transpositions ``s_1, ..., s_{n-1}``.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> length((3, 2, 1))
3
>>> multi_reduced_word({"t": (3, 2, 1)})
(('t', 1), ('t', 2), ('t', 1))
>>> bruhat_leq((2, 1, 3), (3, 1, 2))
True
>>> multi_length({"a": (2, 1), "b": (1, 3, 2)})
2

A block composition of one factor (positive sizes summing to its rank)
cuts out W_P, whose minimal coset representatives increase on each
block.  _cap reads the environment variables that raise enumeration caps.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

Perm = Tuple[int, ...]
MultiPerm = Dict[str, Perm]


def check_perm(w: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple.

    >>> check_perm([2, 1])
    (2, 1)
    >>> check_perm([1, 1])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2: (1, 1)
    """
    w = tuple(w)
    if not w or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(u: Perm, v: Perm) -> Perm:
    """Function composition u after v.

    >>> compose((2, 1, 3), (2, 1, 3))
    (1, 2, 3)
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(u[v[i] - 1] for i in range(len(u)))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        out[wi - 1] = i
    return tuple(out)


def length(w: Perm) -> int:
    """Inversion count #{(i, j) : i < j, w(i) > w(j)}.

    >>> length((1, 2, 3)), length((3, 2, 1))
    (0, 3)
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def simple_reflection(n: int, i: int) -> Perm:
    """s_i as a permutation of rank n (1 <= i <= n-1)."""
    if not 1 <= i < n:
        raise ValueError(f"simple index {i} out of range for rank {n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Strong Bruhat order via sorted-prefix dominance.

    u <= v iff for every k the decreasing sort of (u(1)..u(k)) is
    entrywise <= the decreasing sort of (v(1)..v(k)).

    >>> bruhat_leq((1, 2, 3), (3, 2, 1))
    True
    >>> bruhat_leq((2, 1, 3), (1, 3, 2))
    False
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    n = len(u)
    for k in range(1, n):
        us = sorted(u[:k], reverse=True)
        vs = sorted(v[:k], reverse=True)
        if any(a > b for a, b in zip(us, vs)):
            return False
    return True


# ---------------------------------------------------------------------------
# block compositions of one factor


@lru_cache(maxsize=None)
def block_slices(blocks: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """(start, stop) of each block, 0-indexed, so block k of w is
    w[start:stop].  The one refusal of a block size below 1; the cache
    keeps it off the hot path."""
    if any(size < 1 for size in blocks):
        raise ValueError(f"blocks must be positive: {blocks}")
    out = []
    start = 0
    for size in blocks:
        out.append((start, start + size))
        start += size
    return tuple(out)


def check_blocks(blocks: Tuple[int, ...], n: int) -> Tuple[Tuple[int, int], ...]:
    """The slices of blocks, refusing anything but a composition of n."""
    slices = block_slices(tuple(blocks))
    if (slices[-1][1] if slices else 0) != n:
        raise ValueError(f"blocks {tuple(blocks)} do not sum to {n}")
    return slices


@lru_cache(maxsize=None)
def block_index(blocks: Tuple[int, ...]) -> Tuple[int, ...]:
    """Block number of each position, 0-indexed; position i is entry i-1."""
    return tuple(b for b, (lo, hi) in enumerate(block_slices(blocks)) for _ in range(lo, hi))


def min_rep_perm(w: Perm, blocks: Tuple[int, ...]) -> Perm:
    """Minimal representative of w·W_P for one symmetric group factor."""
    out = []
    for lo, hi in check_blocks(blocks, len(w)):
        out += sorted(w[lo:hi])
    return tuple(out)


def _min_reps_with_length(blocks: Tuple[int, ...]) -> List[Tuple[int, Perm]]:
    """(length, w) for the minimal representatives w of S_n/W_P, in
    lexicographic order of w.

    w increases on each block, so it is fixed by the value set of each
    block, chosen in turn from the values still free.  A block's values
    invert only with smaller values placed later: choosing the entries at
    indices idx of the sorted free values adds sum(idx) - C(size, 2)
    inversions.  The choices for each set of free values are computed once.
    """
    splits: Dict[Tuple[Tuple[int, ...], int], list] = {}

    def split(free, size):
        if (free, size) not in splits:
            shift = math.comb(size, 2)
            splits[free, size] = [
                (
                    sum(idx) - shift,
                    tuple(free[k] for k in idx),
                    tuple(v for k, v in enumerate(free) if k not in idx),
                )
                for idx in itertools.combinations(range(len(free)), size)
            ]
        return splits[free, size]

    reps = [(0, (), tuple(range(1, sum(blocks) + 1)))]
    for size in blocks[:-1]:
        reps = [
            (lg + inc, w + chosen, rest)
            for lg, w, free in reps
            for inc, chosen, rest in split(free, size)
        ]
    return [(lg, w + free) for lg, w, free in reps]


def _min_reps_perm(blocks: Tuple[int, ...]) -> List[Perm]:
    """Minimal representatives of S_n/W_P in lexicographic order."""
    return [w for _, w in _min_reps_with_length(blocks)]


def _cosets(blocks: Tuple[int, ...], binomial=math.comb) -> int:
    """n!/prod b! as a product of binomial(rest, b), rest = b + the later blocks, so no n! is
    formed: |W/W_P| with math.comb, |G/P|(F_p) with the q-binomial at p."""
    rests = itertools.accumulate(reversed(blocks))
    return math.prod(map(binomial, rests, reversed(blocks)))


def _cap(env_name: str, default: int) -> int:
    """An enumeration cap, overridden by an integer environment variable."""
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{env_name} must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# products of symmetric groups, indexed by embedding labels


def check_multi(w: MultiPerm) -> MultiPerm:
    if not isinstance(w, dict) or not w:
        raise ValueError("multi-permutation must be a non-empty label -> images mapping")
    return {tau: check_perm(part) for tau, part in w.items()}


def shape_of(x) -> Dict[str, int]:
    """Embedding label -> rank, for multi-permutations and weights."""
    return {tau: len(v) for tau, v in x.items()}


def check_shapes(a: Dict[str, int], b: Dict[str, int]) -> None:
    """Raise unless two shapes carry the same labels with the same ranks:
    the one test that the permutations, weights and specs of a statement
    fit together."""
    if a != b:
        raise ValueError(f"shapes differ: {a} vs {b}")


def multi_identity(ranks: Dict[str, int]) -> MultiPerm:
    return {tau: identity(n) for tau, n in ranks.items()}


def multi_compose(u: MultiPerm, v: MultiPerm) -> MultiPerm:
    check_shapes(shape_of(u), shape_of(v))
    return {tau: compose(u[tau], v[tau]) for tau in u}


def multi_inverse(w: MultiPerm) -> MultiPerm:
    return {tau: inverse(part) for tau, part in w.items()}


def multi_length(w: MultiPerm) -> int:
    return sum(length(part) for part in w.values())


def multi_longest(ranks: Dict[str, int]) -> MultiPerm:
    return {tau: longest_element(n) for tau, n in ranks.items()}


def multi_bruhat_leq(u: MultiPerm, v: MultiPerm) -> bool:
    """Componentwise Bruhat order on a product of symmetric groups."""
    check_shapes(shape_of(u), shape_of(v))
    return all(bruhat_leq(u[tau], v[tau]) for tau in u)


def multi_simple_reflection(ranks: Dict[str, int], tau: str, i: int) -> MultiPerm:
    out = multi_identity(ranks)
    out[tau] = simple_reflection(ranks[tau], i)
    return out


def multi_reduced_word(w: MultiPerm) -> Tuple[Tuple[str, int], ...]:
    """Deterministic reduced word as (label, simple index) letters, in
    multiplication order (left to right).

    Built by repeatedly removing the smallest right descent, ties across
    factors broken by smallest simple index and then smallest label, so
    the output is reproducible across runs.  A swap at a factor's
    smallest descent i can make a new descent only at i - 1, so that
    factor's scan resumes there instead of starting over.

    >>> multi_reduced_word({"b": (2, 1), "a": (2, 1)})
    (('b', 1), ('a', 1))
    """

    def first_descent(part, start):  # 0 when part increases from start on
        return next((i for i in range(start, len(part)) if part[i - 1] > part[i]), 0)

    cur = {tau: list(part) for tau, part in w.items()}
    first = {tau: first_descent(part, 1) for tau, part in cur.items()}
    rev = []
    while any(first.values()):
        i, tau = min((i, tau) for tau, i in first.items() if i)
        rev.append((tau, i))
        part = cur[tau]
        part[i - 1], part[i] = part[i], part[i - 1]
        first[tau] = first_descent(part, max(i - 1, 1))
    return tuple(reversed(rev))


def freeze(w: MultiPerm) -> Tuple[Tuple[str, Perm], ...]:
    """Canonical hashable form, labels in sorted order."""
    return tuple((tau, tuple(w[tau])) for tau in sorted(w))


def sort_key(w: MultiPerm):
    """Deterministic ordering key: (length, one-line notation, label order)."""
    return (multi_length(w), tuple(w[tau] for tau in sorted(w)), tuple(sorted(w)))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
