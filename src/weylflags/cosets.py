"""Cosets of parabolic Weyl subgroups: W/W_P, W_Q\\W and W_Q\\W/W_P.

W_P is the block-diagonal subgroup cut out by a per-embedding composition.
Every coset w·W_P contains a unique length-minimal representative w^P,
obtained by sorting the values of w over each block of positions; the
decomposition w = w^P · w_P is length-additive.  The Bruhat order on the
quotient is the order on minimal representatives.

Quotients are generated, not filtered: the minimal representatives of
one factor are the permutations increasing on each block, built by
choosing each block's value set in turn, in lexicographic order.  Bruhat
intervals of the quotient are walked by covering steps from one end
(quotients are graded by length), so their cost follows their size.
Every enumeration first checks |W/W_P| against a cap, raised by the
environment variable WEYLFLAGS_MAX_QUOTIENT.

>>> min_rep_perm((3, 2, 1), (2, 1))
(2, 3, 1)
>>> lg_P({"t": (3, 2, 1)}, {"t": (2, 1)})
2
>>> length_split_stats((3, 2, 1), (2, 1))
(1, 2)
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Dict, List, Optional, Tuple

from . import weyl
from .roots import ParabolicSpec, block_index, block_slices, check_spec
from .weyl import MultiPerm, Perm

DEFAULT_MAX_QUOTIENT = 362_880  # 9!: every quotient of rank 9 and below
ENV_MAX_QUOTIENT = "WEYLFLAGS_MAX_QUOTIENT"


def min_rep_perm(w: Perm, blocks: Tuple[int, ...]) -> Perm:
    """Minimal representative of w·W_P for one symmetric group factor."""
    out = []
    hi = 0  # after the loop, the sum of the blocks
    for lo, hi in block_slices(tuple(blocks)):
        out += sorted(w[lo:hi])
    if hi != len(w):
        raise ValueError(f"blocks {blocks} do not sum to rank {len(w)}")
    return tuple(out)


def min_rep(w: MultiPerm, spec: ParabolicSpec) -> MultiPerm:
    spec = _match(w, spec)
    return {tau: min_rep_perm(w[tau], spec[tau]) for tau in w}


def _match(w, spec: ParabolicSpec) -> ParabolicSpec:
    spec = check_spec(spec)
    if set(w) != set(spec):
        raise ValueError(f"embedding sets differ: {sorted(w)} vs {sorted(spec)}")
    return spec


def is_min_rep(w: MultiPerm, spec: ParabolicSpec) -> bool:
    return w == min_rep(w, spec)


def decompose(w: MultiPerm, spec: ParabolicSpec) -> Tuple[MultiPerm, MultiPerm]:
    """The unique length-additive factorization w = w^P · w_P.

    >>> wp, w_in = decompose({"t": (3, 2, 1)}, {"t": (2, 1)})
    >>> wp, w_in
    ({'t': (2, 3, 1)}, {'t': (2, 1, 3)})
    """
    rep = min_rep(w, spec)
    inside = weyl.multi_compose(weyl.multi_inverse(rep), w)
    assert weyl.multi_length(w) == weyl.multi_length(rep) + weyl.multi_length(inside)
    return rep, inside


def lg_P(w: MultiPerm, spec: ParabolicSpec) -> int:
    """Length of the minimal representative of w·W_P."""
    return weyl.multi_length(min_rep(w, spec))


class CosetRep:
    """A coset w·W_P, held as its minimal representative plus its block spec.

    Construction normalizes any representative.  Cosets carry their spec
    and refuse comparison across different specs.  The length lg is
    computed on first use and kept.
    """

    __slots__ = ("rep", "spec", "_frozen", "_lg")

    def __init__(self, w: MultiPerm, spec: ParabolicSpec):
        w = weyl.check_multi(w)
        self.spec = _match(w, spec)
        self.rep = min_rep(w, self.spec)
        self._frozen = (weyl.freeze(self.rep), tuple(sorted(self.spec.items())))
        self._lg = None

    @classmethod
    def _of_parts(cls, labels, parts, spec, spec_key, lg: int) -> "CosetRep":
        """The coset of a representative already known to be minimal:
        parts are its permutations in label order, spec is checked and
        spec_key is tuple(sorted(spec.items())).  Nothing is re-validated."""
        self = object.__new__(cls)
        self.rep = dict(zip(labels, parts))
        self.spec = spec
        self._frozen = (tuple(zip(labels, parts)), spec_key)
        self._lg = lg
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, CosetRep):
            return NotImplemented
        return self._frozen == other._frozen

    def __hash__(self) -> int:
        return hash(self._frozen)

    def __repr__(self) -> str:
        return f"CosetRep({self.rep!r}, {self.spec!r})"

    @property
    def lg(self) -> int:
        if self._lg is None:
            self._lg = weyl.multi_length(self.rep)
        return self._lg

    def sort_key(self):
        """weyl.sort_key of the representative, with the cached length."""
        frozen = self._frozen[0]
        return (self.lg, tuple(w for _, w in frozen), tuple(tau for tau, _ in frozen))

    def _check_comparable(self, other: "CosetRep") -> None:
        if self._frozen[1] != other._frozen[1]:
            raise ValueError(
                f"cosets live in different quotients: {self.spec} vs {other.spec}"
            )


def quotient_leq(u: CosetRep, v: CosetRep) -> bool:
    """Bruhat order on W/W_P via minimal representatives.

    >>> spec = {"t": (2, 1)}
    >>> quotient_leq(CosetRep({"t": (1, 2, 3)}, spec), CosetRep({"t": (3, 2, 1)}, spec))
    True
    """
    u._check_comparable(v)
    return weyl.multi_bruhat_leq(u.rep, v.rep)


def _cap(env_name: str, default: int) -> Tuple[int, bool]:
    """An enumeration cap, overridden by an integer environment variable;
    returns (cap, whether it was raised above the default)."""
    raw = os.environ.get(env_name)
    if raw is None:
        return default, False
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{env_name} must be an integer, got {raw!r}") from None
    return value, value > default


def _require_quotient_cap(spec: ParabolicSpec) -> None:
    """Refuse a quotient with more cosets than the cap allows; the size is
    the product over labels of the multinomials n!/prod b!."""
    cap, _ = _cap(ENV_MAX_QUOTIENT, DEFAULT_MAX_QUOTIENT)
    size = 1
    for blocks in check_spec(spec).values():
        rest = sum(blocks)
        for b in blocks:
            size *= math.comb(rest, b)
            rest -= b
    if size > cap:
        raise ValueError(
            f"quotient W/W_P has {size} cosets, over the enumeration cap {cap}; "
            f"{ENV_MAX_QUOTIENT} raises it"
        )


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


def _quotient_parts(spec: ParabolicSpec) -> List[Tuple[int, Tuple[Perm, ...]]]:
    """(length, permutations in label order) for every coset of W/W_P,
    sorted by (length, one-line notation)."""
    _require_quotient_cap(spec)
    out = [(0, ())]
    for tau in sorted(spec):
        reps = _min_reps_with_length(spec[tau])
        out = [(lg + lw, parts + (w,)) for lg, parts in out for lw, w in reps]
    # lexicographic in the parts, so a stable sort by length alone gives
    # (length, one-line notation) order
    out.sort(key=lambda pair: pair[0])
    return out


def enumerate_quotient(spec: ParabolicSpec) -> List[CosetRep]:
    """All cosets of W/W_P, sorted by (length, one-line notation, label)."""
    spec = check_spec(spec)
    labels = sorted(spec)
    spec_key = tuple(sorted(spec.items()))
    return [
        CosetRep._of_parts(labels, parts, spec, spec_key, lg)
        for lg, parts in _quotient_parts(spec)
    ]


def _covers(w: Perm, block: Tuple[int, ...], up: bool) -> List[Perm]:
    """Minimal representatives one covering step above (up) or below w.

    A step swaps the values a = w(i) and b = w(j), i < j, when no
    position strictly between i and j holds a value strictly between a
    and b; the length goes up by one when a < b.  Covers of the quotient
    are the covers of S_n between minimal representatives, so the swap
    must keep w increasing on each block.  Only the neighbours of i and
    j can break that, and given the cover condition only these do: going
    up, i and j adjacent in one block; going down, the left neighbour of
    i above b or the right neighbour of j below a, inside their blocks."""
    n = len(w)
    out = []
    for i in range(n - 1):
        a = w[i]
        bound = n + 1 if up else 0  # the value nearest a seen beyond it
        left_free = i == 0 or block[i - 1] != block[i]
        for j in range(i + 1, n):
            b = w[j]
            if up:
                if not a < b < bound:
                    continue
                bound = b
                if j == i + 1 and block[i] == block[j]:
                    continue
            else:
                if not bound < b < a:
                    continue
                bound = b
                if not (left_free or w[i - 1] < b):
                    continue
                if j < n - 1 and block[j] == block[j + 1] and w[j + 1] < a:
                    continue
            out.append(w[:i] + (b,) + w[i + 1 : j] + (a,) + w[j + 1 :])
    return out


def _interval(start: CosetRep, up: bool, at_least: Optional[CosetRep] = None) -> List[CosetRep]:
    """The upper (up) or lower order ideal of start in W/W_P, sorted by
    (length, one-line notation, label), found breadth-first by covering
    steps.  The quotient is graded by length, so level k of the search is
    exactly the ideal's cosets at distance k from start.  From the bottom
    or top coset the ideal is the whole quotient, generated directly.
    at_least cuts a lower ideal to the interval [at_least, start]: every
    coset of it lies on a chain of covers down from start that stays
    inside, so the search drops the cosets not above at_least."""
    spec = start.spec
    _require_quotient_cap(spec)
    labels = sorted(spec)
    if at_least is None:
        # the top coset has length l(w_0) - l(w_{P,0})
        top = sum(math.comb(sum(b), 2) - sum(math.comb(k, 2) for k in b) for b in spec.values())
        if start.lg == (0 if up else top):
            return enumerate_quotient(spec)
    else:
        at_least._check_comparable(start)
        floor = [at_least.rep[tau] for tau in labels]
    spec_key = start._frozen[1]
    blocks = [block_index(spec[tau]) for tau in labels]
    lg = start.lg
    level = {tuple(w for _, w in start._frozen[0])}
    levels = []
    while True:
        if at_least is not None:
            level = {parts for parts in level if all(map(weyl.bruhat_leq, floor, parts))}
        if not level:
            break
        levels.append([CosetRep._of_parts(labels, parts, spec, spec_key, lg) for parts in sorted(level)])
        level = {
            parts[:k] + (v,) + parts[k + 1 :]
            for parts in level
            for k, w in enumerate(parts)
            for v in _covers(w, blocks[k], up)
        }
        lg += 1 if up else -1
    if not up:
        levels.reverse()
    return [c for lv in levels for c in lv]


def wp_elements(spec: ParabolicSpec) -> List[MultiPerm]:
    """All elements of the block subgroup W_P."""
    spec = check_spec(spec)
    labels = sorted(spec)
    per_tau = []
    for tau in labels:
        per_block = [
            itertools.permutations(range(lo + 1, hi + 1)) for lo, hi in block_slices(spec[tau])
        ]
        per_tau.append(
            [tuple(x for blk in combo for x in blk) for combo in itertools.product(*per_block)]
        )
    return [
        {tau: part for tau, part in zip(labels, combo)}
        for combo in itertools.product(*per_tau)
    ]


def longest_in_levi(spec: ParabolicSpec) -> MultiPerm:
    """w_{P,0}: the longest element of W_P, reversing each block."""
    spec = check_spec(spec)
    return {
        tau: tuple(v for lo, hi in block_slices(blocks) for v in range(hi, lo, -1))
        for tau, blocks in spec.items()
    }


def left_min_rep(w: MultiPerm, spec: ParabolicSpec) -> MultiPerm:
    """Minimal representative of W_Q·w; w is in ^QW iff w^{-1} is in W^Q."""
    return weyl.multi_inverse(min_rep(weyl.multi_inverse(w), spec))


def is_left_min_rep(w: MultiPerm, spec: ParabolicSpec) -> bool:
    return w == left_min_rep(w, spec)


def _left_quotient(spec: ParabolicSpec) -> List[Tuple[int, MultiPerm]]:
    """(length, w) for w in ^QW, in no particular order: w is in ^QW iff
    w^{-1} is in W^Q, and inversion keeps the length."""
    labels = sorted(spec)
    return [
        (lg, {tau: weyl.inverse(w) for tau, w in zip(labels, parts)})
        for lg, parts in _quotient_parts(check_spec(spec))
    ]


def _sorted_by_length(pairs: List[Tuple[int, MultiPerm]]) -> List[MultiPerm]:
    """The elements of (length, w) pairs sorted as weyl.sort_key sorts
    them, reading each length from its pair instead of recomputing it."""
    pairs = sorted(pairs, key=lambda pair: (pair[0], weyl.freeze(pair[1])))
    return [w for _, w in pairs]


def enumerate_left_quotient(spec: ParabolicSpec) -> List[MultiPerm]:
    """^QW, sorted by (length, one-line notation, label)."""
    return _sorted_by_length(_left_quotient(spec))


def shortest_double_coset_rep(
    w: MultiPerm,
    qspec: ParabolicSpec,
    pspec: ParabolicSpec,
    method: str = "auto",
) -> MultiPerm:
    """The unique minimal-length element of W_Q · w · W_P.

    method "exhaustive" materializes the double coset (small ranks);
    "normalize" alternates left and right minimal-representative passes
    until stable.  "auto" picks exhaustive up to rank 6.  The result lies
    in W^P intersected with ^QW.
    """
    qspec = _match(w, qspec)
    pspec = _match(w, pspec)
    if method == "auto":
        method = "exhaustive" if max(len(p) for p in w.values()) <= 6 else "normalize"
    if method == "exhaustive":
        coset = {
            weyl.freeze(weyl.multi_compose(a, weyl.multi_compose(w, b)))
            for a in wp_elements(qspec)
            for b in wp_elements(pspec)
        }
        elems = [dict(f) for f in coset]
        elems.sort(key=weyl.sort_key)
        best = elems[0]
        if len(elems) > 1 and weyl.multi_length(elems[1]) == weyl.multi_length(best):
            raise AssertionError(f"double coset minimum not unique at {w}")
        return best
    if method == "normalize":
        cur = w
        while True:
            nxt = left_min_rep(min_rep(cur, pspec), qspec)
            if nxt == cur:
                return cur
            cur = nxt
    raise ValueError(f"unknown method {method!r}")


def length_split_stats(sigma: Perm, blocks: Tuple[int, ...]) -> Tuple[int, int]:
    """Inversions of sigma split into within-block and cross-block counts.

    Returns (n_I, n^I) for the composition I: pairs m < n with
    sigma(m) > sigma(n), counted inside one block of I and across two
    blocks respectively.  These equal the lengths of the two factors of
    the parabolic decomposition, and n_I + n^I is the inversion count of
    sigma.

    >>> length_split_stats((3, 2, 1), (2, 1))
    (1, 2)
    """
    sigma = weyl.check_perm(sigma)
    if sum(blocks) != len(sigma):
        raise ValueError(f"composition {blocks} does not sum to rank {len(sigma)}")
    block_slices(tuple(blocks))  # refuses non-positive sizes
    bl = block_index(blocks)
    within = across = 0
    n = len(sigma)
    for m in range(n):
        for k in range(m + 1, n):
            if sigma[m] > sigma[k]:
                if bl[m] == bl[k]:
                    within += 1
                else:
                    across += 1
    return within, across


if __name__ == "__main__":
    import doctest

    doctest.testmod()
