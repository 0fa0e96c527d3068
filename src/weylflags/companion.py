"""Companion-character bookkeeping over a fixed refinement.

From an antidominant integral coweight h the module derives the dominant
algebraic weight lambda and the block structure P of its stabilizer;
from a character's weight it recovers the coset position w relative to h;
and from a starting position w_R it enumerates the companion characters
delta_{R,w} = twisted z^{w(h)} times the unramified part, for w running
over the upper order ideal of w_R in W/W_P.  That ideal, like the lower
ideals behind Jordan-Holder cosets, is walked by covering steps from its
end point, so the work follows the size of the answer rather than of the
quotient.  A certified walk upgrades the enumeration with an explicit
saturated chain from w_R to the top.

Characters are symbolic: the smooth part is an ordered tuple of opaque
eigenvalue labels, and only weights are computed on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from . import weyl
from .cosets import CosetRep, _interval
from .roots import IntegralWeight, ParabolicSpec, check_spec, shape_of

if TYPE_CHECKING:  # only certify_walk needs steinberg, and imports it itself
    from .steinberg import InductionStep


class PlaceRefinement(NamedTuple("PlaceRefinement", [
    ("place", str), ("q", int), ("embeddings", Tuple[str, ...]), ("labels", Tuple[str, ...]),
    ("values", Optional[Tuple[Fraction, ...]]),
])):
    """Ordered eigenvalue data at one place.

    labels come in refinement order; values, when present, are exact
    rationals aligned with labels; q is the residue-field cardinality
    used by the genericity test; embeddings lists the labels of the
    archimedean-side embeddings attached to this place.
    """

    __slots__ = ()

    def __new__(cls, place, q, embeddings, labels, values=None):
        if len(set(labels)) != len(labels):
            raise ValueError(f"eigenvalue labels at place {place!r} are not distinct")
        if values is not None and len(values) != len(labels):
            raise ValueError(f"eigenvalue values at place {place!r} do not match labels")
        if q < 2:
            raise ValueError(f"residue cardinality at place {place!r} must be >= 2")
        return super().__new__(cls, place, q, embeddings, labels, values)


class RefinementSpec(NamedTuple("RefinementSpec", [("places", Tuple[PlaceRefinement, ...])])):
    __slots__ = ()

    def __new__(cls, places):
        names = [p.place for p in places]
        if len(set(names)) != len(names):
            raise ValueError("place labels are not distinct")
        embs = [e for p in places for e in p.embeddings]
        if len(set(embs)) != len(embs):
            raise ValueError("embedding labels are not distinct across places")
        return super().__new__(cls, places)


class CharacterSymbol(NamedTuple):
    """delta_{R,w} reduced to its computable shadow.

    algebraic_weight holds the twisted weight: per embedding, entry i is
    (w(h))_i + (i-1).  smooth_labels fixes the unramified part as the
    eigenvalue labels per place, independent of w.
    """

    algebraic_weight: IntegralWeight
    smooth_labels: Tuple[Tuple[str, Tuple[str, ...]], ...]


class CompanionCertificate(NamedTuple):
    """A saturated certified chain w_R = u_0 < u_1 < ... < u_k = top."""

    start: CosetRep
    end: CosetRep
    chain: Tuple[InductionStep, ...]


def runs_composition(vec: Tuple[int, ...]) -> Tuple[int, ...]:
    """Block sizes of maximal equal runs of a non-empty weakly increasing
    vector."""
    if not vec:
        raise ValueError("vector is empty")
    blocks = []
    run = 1
    for a, b in zip(vec, vec[1:]):
        if b < a:
            raise ValueError(f"vector is not weakly increasing: {vec}")
        if b == a:
            run += 1
        else:
            blocks.append(run)
            run = 1
    blocks.append(run)
    return tuple(blocks)


def hodge_spec(h: IntegralWeight) -> ParabolicSpec:
    """The stabilizer block structure of an antidominant h."""
    if not h:
        raise ValueError("weight must be a non-empty label -> vector mapping")
    return {tau: runs_composition(tuple(v)) for tau, v in h.items()}


def weights_from_hodge(h: IntegralWeight) -> Tuple[IntegralWeight, ParabolicSpec]:
    """(lambda, P) from antidominant h: lambda_i = h_{n+1-i} + i - 1.

    lambda + staircase is dominant, and the longest element's dot action
    sends lambda back to (h_1, h_2+1, ..., h_n+n-1).

    >>> weights_from_hodge({"t": (1, 1, 2)})
    ({'t': (2, 2, 3)}, {'t': (2, 1)})
    """
    spec = hodge_spec(h)
    lam = {
        tau: tuple(v[len(v) - i] + i - 1 for i in range(1, len(v) + 1))
        for tau, v in h.items()
    }
    return lam, spec


def relative_position(char_weight: IntegralWeight, h: IntegralWeight) -> CosetRep:
    """The unique coset w in W/W_P with w(h) = char_weight.

    w lists the positions of char_weight in increasing order of their
    entries; a stable sort matches ties among equal h-entries increasing
    positions to increasing positions, which lands exactly on the minimal
    coset representative.

    >>> relative_position({"t": (2, 1, 1)}, {"t": (1, 1, 2)}).rep
    {'t': (2, 3, 1)}
    """
    spec = check_spec(hodge_spec(h), shape_of(char_weight))
    labels = sorted(h)
    parts = []
    for tau in labels:
        cw, hvec = char_weight[tau], h[tau]
        if sorted(cw) != list(hvec):
            raise ValueError(
                f"weight at embedding {tau!r} is not a rearrangement of h: {cw} vs {hvec}"
            )
        parts.append(tuple(sorted(range(1, len(cw) + 1), key=lambda i: cw[i - 1])))
    return CosetRep(dict(zip(labels, parts)), spec)


def _quotient_of(w_R: CosetRep, h: IntegralWeight) -> ParabolicSpec:
    """The spec derived from h, refused unless w_R lives in its quotient."""
    spec = hodge_spec(h)
    if w_R != CosetRep(w_R.rep, spec):
        raise ValueError("w_R does not live in the quotient derived from h")
    return spec


def _twisted(part: weyl.Perm, v: Tuple[int, ...]) -> Tuple[int, ...]:
    """w(h) plus the staircase (0, 1, ..., n-1) at one embedding, for w's
    permutation part and h's vector v there: v_j lands at position w(j)."""
    out = [0] * len(part)
    for j, i in enumerate(part):
        out[i - 1] = v[j] + i - 1
    return tuple(out)


def character_for(
    w: CosetRep, h: IntegralWeight, smooth_labels: Tuple[Tuple[str, Tuple[str, ...]], ...]
) -> CharacterSymbol:
    """delta_{R,w} for a coset w of the quotient derived from h, its shape
    already checked against h, with the refinement's (place, labels)
    pairs as its smooth part; the weight is formed label by label."""
    rep = w.rep
    return CharacterSymbol({tau: _twisted(rep[tau], v) for tau, v in h.items()}, smooth_labels)


def companion_set(
    refinement: RefinementSpec, h: IntegralWeight, w_R: CosetRep
) -> List[Tuple[CosetRep, CharacterSymbol]]:
    """All (w, delta_{R,w}) with w >= w_R in W/W_P.

    Sorted by (lg_P, one-line notation, embedding label); found by
    covering steps upward from w_R.  The shapes are checked once, and the
    smooth labels built once, for the whole listing.

    >>> r = RefinementSpec((PlaceRefinement("v", 3, ("t",), ("a", "b")),))
    >>> h = {"t": (0, 1)}
    >>> w_R = relative_position({"t": (0, 1)}, h)
    >>> [c.algebraic_weight for _, c in companion_set(r, h, w_R)]
    [{'t': (0, 2)}, {'t': (1, 1)}]
    """
    _quotient_of(w_R, h)
    smooth = tuple((p.place, p.labels) for p in refinement.places)
    return [(w, character_for(w, h, smooth)) for w in _interval(w_R, up=True)]


def jordan_holder_cosets(w: CosetRep) -> List[CosetRep]:
    """The lower order ideal {w' <= w} in W/W_P.

    Sorted by (lg_P, one-line notation, embedding label); found by
    covering steps downward from w.  The unique maximal element of the
    returned list is w itself.
    """
    return _interval(w, up=False)


def certify_walk(w_R: CosetRep, h: IntegralWeight) -> CompanionCertificate:
    """Climb from w_R to the top coset one certified covering step at a
    time; the chain length is lg_P(top) - lg_P(w_R)."""
    from .steinberg import find_induction_step

    spec = _quotient_of(w_R, h)
    steps: List[InductionStep] = []
    cur = w_R
    top = CosetRep(weyl.multi_longest(shape_of(h)), spec)
    while cur != top:
        step = find_induction_step(cur, spec, h)
        steps.append(step)
        cur = step.w_to
    assert len(steps) == top.lg - w_R.lg
    return CompanionCertificate(start=w_R, end=top, chain=tuple(steps))


def genericity_check(refinement: RefinementSpec) -> bool:
    """Exact test that all eigenvalue ratios avoid {1, q} at each place.

    >>> genericity_check(RefinementSpec((PlaceRefinement(
    ...     "v", 3, ("t",), ("a", "b"), (Fraction(1), Fraction(2))),)))
    True
    """
    for place in refinement.places:
        if place.values is None:
            raise ValueError(f"place {place.place!r} has no numeric eigenvalues")
        if any(v == 0 for v in place.values):
            raise ValueError(f"place {place.place!r} has a zero eigenvalue")
        for i, a in enumerate(place.values):
            for j, b in enumerate(place.values):
                if i == j:
                    continue
                ratio = Fraction(a, b)
                if ratio == 1 or ratio == place.q:
                    return False
    return True


if __name__ == "__main__":
    import doctest

    doctest.testmod()
