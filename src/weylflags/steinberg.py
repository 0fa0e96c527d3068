"""Component-inclusion criteria for generalized Steinberg loci.

All decisions reduce to finite root computations.  The defect
|w(R_P) n R^+ n R_Q| is counted on block indices: the pairs i < j inside
one P-block whose images w(i) and w(j) share a Q-block.  Strict
dominance and P-regularity of a coweight read the simple roots, split
into Delta_P and the rest once per spec (roots._delta_split).  The two
component routes check each input once on entry, P against the coset's
own spec, and decide through private helpers that check nothing again.
The walk driver find_induction_step raises a coset one covering step at
a time, certifying each step with a simple root and the minimal
parabolic attached to it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Tuple

from . import weyl
from .cosets import (
    CosetRep,
    _levi_longest_perm,
    _quotient_parts,
    longest_in_levi,
    quotient_leq,
    shortest_double_coset_rep,
)
from .roots import (
    IntegralWeight,
    ParabolicSpec,
    Root,
    _act,
    _dominant,
    _p_regular,
    act,
    check_spec,
    dominance,
    pairing,
    shape_of,
    simple_roots,
)
from .weyl import block_index, block_slices, check_shapes, min_rep_perm


def levi_cap_u_in_nQ(w: weyl.MultiPerm, pspec: ParabolicSpec, qspec: ParabolicSpec) -> bool:
    """Whether Ad(w)m_P meets the unipotent radical only inside n_Q,
    i.e. w(R_P) n R^+ avoids the positive roots of the Q-Levi.

    This is a condition on the double coset W_Q w W_P (same answer for
    every representative); it decides whether the locus indexed by that
    double coset is a whole component of the Q-locus.  The inclusion
    test for a single coset wW_P is component_in_ZQP_roots.
    """
    return not z_dimension_defect(w, pspec, qspec)


def z_dimension_defect(w: weyl.MultiPerm, pspec: ParabolicSpec, qspec: ParabolicSpec) -> int:
    """dim(u n Ad(w)m_P) - dim(n_Q n Ad(w)m_P) = |w(R_P) n R^+ n R_Q|;
    zero iff the inclusion holds.

    >>> z_dimension_defect({"t": (2, 3, 1)}, {"t": (2, 1)}, {"t": (3,)})
    1
    """
    w = weyl.check_multi(w)
    shape = shape_of(w)
    return _defect(w, check_spec(pspec, shape), check_spec(qspec, shape))


def _defect(w: weyl.MultiPerm, pspec: ParabolicSpec, qspec: ParabolicSpec) -> int:
    """|w(R_P) n R^+ n R_Q| for specs fitted to w.  A pair i < j inside
    one P-block gives the roots +-(e_i - e_j) of R_P; exactly one of their
    images is positive, and it lies in R_Q, that is in u outside n_Q,
    iff w(i) and w(j) share a Q-block."""
    count = 0
    for tau, part in w.items():
        qblock = block_index(qspec[tau])
        for lo, hi in block_slices(pspec[tau]):
            images = [qblock[v - 1] for v in part[lo:hi]]
            count += sum(a == b for a, b in itertools.combinations(images, 2))
    return count


def check_p_regular(h: IntegralWeight, pspec: ParabolicSpec) -> IntegralWeight:
    """h, refusing it unless it fits the shape of pspec and is P-regular
    antidominant for it."""
    return _check_p_regular(h, check_spec(pspec, shape_of(h)))


def _check_p_regular(h: IntegralWeight, pspec: ParabolicSpec) -> IntegralWeight:
    """check_p_regular for a spec already fitted to the shape of h."""
    if not _p_regular(h, pspec):
        raise ValueError(f"h is not P-regular antidominant for blocks {pspec}: {h}")
    return h


def _route_specs(
    w: CosetRep, pspec: ParabolicSpec, qspec: ParabolicSpec
) -> Tuple[ParabolicSpec, ParabolicSpec]:
    """The entry check of both component routes: pspec and qspec checked
    against the shape of w, and pspec refused unless it is w's own spec."""
    shape = shape_of(w.rep)
    pspec = check_spec(pspec, shape)
    if pspec != w.spec:
        raise ValueError(f"coset {w.rep} lives in W/W_P for blocks {w.spec}, not {pspec}")
    return pspec, check_spec(qspec, shape)


def component_in_ZQP(
    w: CosetRep, pspec: ParabolicSpec, qspec: ParabolicSpec, h: IntegralWeight
) -> bool:
    """Whether the component indexed by w·W_P lies in the Q-locus.

    Decided by strict Q-dominance of w(h) for a P-regular antidominant h;
    the answer does not depend on which such h is supplied.
    """
    pspec, qspec = _route_specs(w, pspec, qspec)
    check_shapes(shape_of(w.rep), shape_of(h))
    _check_p_regular(h, pspec)
    return _dominant(_act(w.rep, h), qspec)


def component_in_ZQP_roots(w: CosetRep, pspec: ParabolicSpec, qspec: ParabolicSpec) -> bool:
    """Pure root-set route to the same inclusion component_in_ZQP decides.

    The component of wW_P lies in the Q-locus iff, for the shortest
    representative r of the double coset W_Q w W_P, Ad(r)m_P n u sits
    inside n_Q and wW_P = w_{Q,0}·r·W_P.  Needs no coweight h.  The
    second test compares minimal representatives label by label.
    """
    pspec, qspec = _route_specs(w, pspec, qspec)
    r = shortest_double_coset_rep(w.rep, qspec, pspec)
    if _defect(r, pspec, qspec):
        return False
    return all(
        min_rep_perm(weyl.compose(_levi_longest_perm(qspec[tau]), part), pspec[tau]) == w.rep[tau]
        for tau, part in r.items()
    )


def steinberg_components_full_flag(qspec: ParabolicSpec) -> List[weyl.MultiPerm]:
    """Indices w of the full-flag components lying in the Q-locus, sorted
    by (length, one-line notation, label), labels in sorted order.

    These are exactly w_{Q,0}·w' for w' ranging over ^QW, the inverses of
    the minimal representatives of W/W_Q.  The product has length
    l(w_{Q,0}) + l(w'), since w' is minimal in W_Q·w', so the lengths of
    w' order the list by length.  The spec is checked once, and each
    product is formed label by label.
    """
    qspec = check_spec(qspec)
    wq0 = longest_in_levi(qspec)
    labels = sorted(wq0)
    heads = [wq0[tau] for tau in labels]

    def lift(head: weyl.Perm, part: weyl.Perm) -> weyl.Perm:  # w_{Q,0}·w'^{-1}, one pass: w'(j) -> w_{Q,0}(j)
        out = [0] * len(part)
        for value, k in zip(head, part):
            out[k - 1] = value
        return tuple(out)

    lifted = sorted((lg, tuple(map(lift, heads, parts))) for lg, parts in _quotient_parts(qspec))
    return [dict(zip(labels, parts)) for _, parts in lifted]


def components_through_point(w_x: CosetRep, w: CosetRep) -> bool:
    """Whether the component indexed by w passes through a point in
    relative position w_x: true iff w >= w_x in W/W_P."""
    return quotient_leq(w_x, w)


class InductionStep(NamedTuple):
    """One certified covering step of the walk: s_alpha · w_from = w_to
    with lg_P going up by one, and Q the minimal parabolic of alpha."""

    alpha: Root
    Q: ParabolicSpec
    w_from: CosetRep
    w_to: CosetRep


def minimal_parabolic(shape: Dict[str, int], alpha: Root) -> ParabolicSpec:
    """B(alpha): the parabolic whose only Levi block merges alpha's pair."""
    assert alpha.simple
    spec = {}
    for tau, n in shape.items():
        if tau == alpha.tau:
            spec[tau] = tuple([1] * (alpha.i - 1) + [2] + [1] * (n - alpha.i - 1))
        else:
            spec[tau] = (1,) * n
    return spec


def find_induction_step(w: CosetRep, pspec: ParabolicSpec, h: IntegralWeight) -> InductionStep:
    """A simple root raising w one covering step in W/W_P.

    Candidates are the simple alpha with <alpha, w(h)> < 0; the smallest
    (index, label) is chosen.  Returns the step together with Q = B(alpha),
    for which s_alpha·w(h) is strictly Q-dominant while w(h) is not.
    Raises when w is already the maximal coset.
    """
    check_p_regular(h, pspec)
    shape = shape_of(h)
    wh = act(w.rep, h)
    cands = [a for a in simple_roots(shape) if pairing(a, wh) < 0]
    if not cands:
        raise ValueError(f"coset {w.rep} is maximal in W/W_P; no step exists")
    alpha = min(cands, key=lambda a: (a.i, a.tau))
    qspec = minimal_parabolic(shape, alpha)
    s_alpha = weyl.multi_simple_reflection(shape, alpha.tau, alpha.i)
    target = CosetRep(weyl.multi_compose(s_alpha, w.rep), pspec)
    assert target.lg == w.lg + 1
    assert dominance(act(target.rep, h), qspec)
    assert not dominance(wh, qspec)
    return InductionStep(alpha, qspec, w, target)
