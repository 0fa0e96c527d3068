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
from functools import lru_cache
from typing import List, Optional, Tuple

from . import weyl
from .roots import ParabolicSpec, check_spec, shape_of
from .weyl import MultiPerm, Perm, _cap, _cosets, _min_reps_with_length, block_index, block_slices, min_rep_perm

DEFAULT_MAX_QUOTIENT = 362_880  # 9!: every quotient of rank 9 and below
ENV_MAX_QUOTIENT = "WEYLFLAGS_MAX_QUOTIENT"
# 5!: the largest |W_Q|·|W_P| the exhaustive double-coset route composes, about
# 1 ms (the route awaits deletion, ROADMAP item 1). Per call, exhaustive / normalizing
# at 1, 12, 120, 720, 14,400 pairs: 31/13, 114/21 us, 0.97 ms/22, 2.4 ms/21, 35 ms/21 us.
MAX_EXHAUSTIVE_PAIRS = 120
# a checked spec's sorted items -> the one dict every coset of that spec holds
_shared_spec = lru_cache(maxsize=None)(dict)


def min_rep(w: MultiPerm, spec: ParabolicSpec) -> MultiPerm:
    w = weyl.check_multi(w)
    return _min_rep(w, check_spec(spec, shape_of(w)))


def _min_rep(w: MultiPerm, spec: ParabolicSpec) -> MultiPerm:
    """min_rep for a checked w and a spec fitted to it."""
    return {tau: min_rep_perm(w[tau], spec[tau]) for tau in w}


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

    Construction normalizes any representative.  Cosets of one spec share
    one checked spec dict, never the caller's: treat it as read-only.  Equal
    representatives and specs make equal cosets, and the hash freezes both;
    order comparison across specs is refused.  lg is computed on first use.
    """

    __slots__ = ("rep", "spec", "_lg")

    def __init__(self, w: MultiPerm, spec: ParabolicSpec):
        w = weyl.check_multi(w)
        self.spec = _shared_spec(tuple(sorted(check_spec(spec, shape_of(w)).items())))
        self.rep = _min_rep(w, self.spec)
        self._lg = None

    @classmethod
    def _of_parts(cls, labels, parts, spec, lg: Optional[int]) -> "CosetRep":
        """The coset of a representative already known to be minimal:
        parts are its permutations in sorted label order, spec is checked
        and lg, when None, is computed on first use.  Nothing is
        re-validated."""
        self = object.__new__(cls)
        self.rep = dict(zip(labels, parts))
        self.spec = spec
        self._lg = lg
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, CosetRep):
            return NotImplemented
        return (self.rep, self.spec) == (other.rep, other.spec)

    def __hash__(self) -> int:
        return hash((weyl.freeze(self.rep), tuple(sorted(self.spec.items()))))

    def __repr__(self) -> str:
        return f"CosetRep({self.rep!r}, {self.spec!r})"

    @property
    def lg(self) -> int:
        if self._lg is None:
            self._lg = weyl.multi_length(self.rep)
        return self._lg

    def _check_comparable(self, other: "CosetRep") -> None:
        if self.spec != other.spec:
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


def _require_quotient_cap(spec: ParabolicSpec) -> None:
    """Refuse a quotient with more cosets than the cap allows; the size is
    the product over labels of the multinomials n!/prod b!."""
    cap = _cap(ENV_MAX_QUOTIENT, DEFAULT_MAX_QUOTIENT)
    size = math.prod(_cosets(blocks) for blocks in check_spec(spec).values())
    if size > cap:
        raise ValueError(
            f"quotient W/W_P has {size} cosets, over the enumeration cap {cap}; "
            f"{ENV_MAX_QUOTIENT} raises it"
        )


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
    spec = _shared_spec(tuple(sorted(check_spec(spec).items())))
    labels = sorted(spec)
    return [CosetRep._of_parts(labels, parts, spec, lg) for lg, parts in _quotient_parts(spec)]


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


def _interval(start: CosetRep, up: bool) -> List[CosetRep]:
    """The upper (up) or lower order ideal of start in W/W_P, sorted by
    (length, one-line notation, label), found breadth-first by covering
    steps.  The quotient is graded by length, so level k of the search is
    exactly the ideal's cosets at distance k from start.  From the bottom
    or top coset the ideal is the whole quotient, generated directly."""
    spec = start.spec
    _require_quotient_cap(spec)
    labels = sorted(spec)
    # the top coset has length l(w_0) - l(w_{P,0})
    top = sum(math.comb(sum(b), 2) - sum(math.comb(k, 2) for k in b) for b in spec.values())
    if start.lg == (0 if up else top):
        return enumerate_quotient(spec)
    blocks = [block_index(spec[tau]) for tau in labels]
    lg = start.lg
    level = {tuple(start.rep[tau] for tau in labels)}
    levels = []
    while level:
        levels.append([CosetRep._of_parts(labels, parts, spec, lg) for parts in sorted(level)])
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


def _levi_order(spec: ParabolicSpec) -> int:
    """|W_P|: the product of b! over every block of every label."""
    return math.prod(math.factorial(b) for blocks in spec.values() for b in blocks)


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
    return {tau: _levi_longest_perm(blocks) for tau, blocks in check_spec(spec).items()}


@lru_cache(maxsize=None)
def _levi_longest_perm(blocks: Tuple[int, ...]) -> Perm:
    """w_{P,0} of one factor, for blocks that have been through check_spec."""
    return tuple(v for lo, hi in block_slices(blocks) for v in range(hi, lo, -1))


def left_min_rep(w: MultiPerm, spec: ParabolicSpec) -> MultiPerm:
    """Minimal representative of W_Q·w; w is in ^QW iff w^{-1} is in W^Q."""
    w = weyl.check_multi(w)
    return _left_min_rep(w, check_spec(spec, shape_of(w)))


def _left_min_rep(w: MultiPerm, spec: ParabolicSpec) -> MultiPerm:
    return weyl.multi_inverse(_min_rep(weyl.multi_inverse(w), spec))


def shortest_double_coset_rep(w: MultiPerm, qspec: ParabolicSpec, pspec: ParabolicSpec) -> MultiPerm:
    """The unique minimal-length element of W_Q · w · W_P.

    w and both specs are checked once, on entry.  Up to rank 6, while
    |W_Q|·|W_P| is at most MAX_EXHAUSTIVE_PAIRS (about 1 ms of pairs), the
    double coset is materialized, each a·w·b composed label by label, and
    its shortest element taken; past that _normalize_double_coset answers
    in tens of microseconds at any size.  The result is in W^P ∩ ^QW.
    """
    w = weyl.check_multi(w)
    shape = shape_of(w)
    qspec = check_spec(qspec, shape)
    pspec = check_spec(pspec, shape)
    small = max(shape.values()) <= 6 and (
        _levi_order(qspec) * _levi_order(pspec) <= MAX_EXHAUSTIVE_PAIRS
    )
    if not small:
        return _normalize_double_coset(w, qspec, pspec)
    labels = sorted(w)
    right = wp_elements(pspec)
    coset = {tuple(weyl.compose(a[tau], weyl.compose(w[tau], b[tau])) for tau in labels)
             for a in wp_elements(qspec) for b in right}
    elems = sorted((dict(zip(labels, parts)) for parts in coset), key=weyl.sort_key)
    best = elems[0]
    if len(elems) > 1 and weyl.multi_length(elems[1]) == weyl.multi_length(best):
        raise AssertionError(f"double coset minimum not unique at {w}")
    return best


def _normalize_double_coset(w: MultiPerm, qspec: ParabolicSpec, pspec: ParabolicSpec) -> MultiPerm:
    """The shortest element of W_Q · w · W_P, by alternating right and
    left minimal-representative passes, on checked inputs, until stable."""
    cur = w
    while True:
        nxt = _left_min_rep(_min_rep(cur, pspec), qspec)
        if nxt == cur:
            return cur
        cur = nxt


def length_split_stats(sigma: Perm, blocks: Tuple[int, ...]) -> Tuple[int, int]:
    """Inversions of sigma split into within-block and cross-block counts.

    Returns (n_I, n^I) for the composition I: pairs m < n with
    sigma(m) > sigma(n), counted inside one block of I and across two
    blocks respectively.  These are the lengths of the two factors of the
    parabolic decomposition sigma = sigma^I · sigma_I, so n^I is the
    length of sigma^I and n_I + n^I the inversion count of sigma.

    >>> length_split_stats((3, 2, 1), (2, 1))
    (1, 2)
    """
    sigma = weyl.check_perm(sigma)
    across = weyl.length(min_rep_perm(sigma, blocks))
    return weyl.length(sigma) - across, across


if __name__ == "__main__":
    import doctest

    doctest.testmod()
