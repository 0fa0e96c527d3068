"""Component-inclusion criteria for generalized Steinberg loci.

All decisions reduce to finite root computations.  The defect
|w(R_P) n R^+ n R_Q| is counted on block indices: the pairs i < j inside
one P-block whose images w(i) and w(j) share a Q-block.  Strict
dominance and P-regularity of a coweight read the simple roots, split
into Delta_P and the rest once per spec (roots._delta_split).  The two
component routes check each input once on entry, P against the coset's
own spec, and decide through private helpers that check nothing again.
A covering step of the walk by a simple root alpha is certified by three
facts about the minimal parabolic B(alpha).  One unchecked body, _step,
takes it and says whether they hold, for find_induction_step (which
raises ArithmeticError if not) and companion.certify_walk alike.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import weyl
from .cosets import (
    CosetRep,
    _levi_longest_perm,
    _quotient_parts,
    longest_in_levi,
    quotient_leq,
    shortest_double_coset_rep,
)
from .roots import IntegralWeight, ParabolicSpec, Root, _act, _dominant, _p_regular, check_spec, shape_of
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


def _own_spec(w: CosetRep, pspec: ParabolicSpec) -> ParabolicSpec:
    """pspec checked against the shape of w, and refused unless it is w's
    own spec: the entry check of the component routes and of the step."""
    pspec = check_spec(pspec, shape_of(w.rep))
    if pspec != w.spec:
        raise ValueError(f"coset {w.rep} lives in W/W_P for blocks {w.spec}, not {pspec}")
    return pspec


def component_in_ZQP(
    w: CosetRep, pspec: ParabolicSpec, qspec: ParabolicSpec, h: IntegralWeight
) -> bool:
    """Whether the component indexed by w·W_P lies in the Q-locus.

    Decided by strict Q-dominance of w(h) for a P-regular antidominant h;
    the answer does not depend on which such h is supplied.
    """
    pspec, qspec = _own_spec(w, pspec), check_spec(qspec, shape_of(w.rep))
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
    pspec, qspec = _own_spec(w, pspec), check_spec(qspec, shape_of(w.rep))
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
    """One covering step of the walk: s_alpha · w_from = w_to, and Q the
    minimal parabolic B(alpha)."""

    alpha: Root
    Q: ParabolicSpec
    w_from: CosetRep
    w_to: CosetRep


def minimal_parabolic(shape: Dict[str, int], alpha: Root) -> ParabolicSpec:
    """B(alpha): the parabolic whose only Levi block merges alpha's pair,
    for a simple root alpha of the shape; any other root is refused."""
    tau, i, j = alpha
    if not (j == i + 1 and 1 <= i < shape.get(tau, 0)):
        raise ValueError(f"root {alpha} is not a simple root of the shape {shape}")
    return {t: (1,) * (i - 1) + (2,) + (1,) * (n - i - 1) if t == tau else (1,) * n for t, n in shape.items()}


def _step(w: CosetRep, wh: IntegralWeight) -> Optional[Tuple[InductionStep, IntegralWeight, bool]]:
    """The step body, checking nothing; wh is w(h), h P-regular antidominant
    for w's spec P.  The smallest ascent (i, tau) of w(h), <alpha, w(h)> < 0
    for alpha = e_i - e_{i+1}, gives s_alpha·w: values i and i+1 swap in w_tau,
    positions i and i+1 in w(h).  Returns the step, s_alpha·w(h) and whether
    the three certifying facts hold: lg_P goes up by one, and s_alpha·w(h)
    is strictly B(alpha)-dominant while w(h) is not.  None at the top coset."""
    i, tau = min(((i, tau) for tau, v in wh.items() for i in range(1, len(v)) if v[i - 1] < v[i]), default=(0, ""))
    if not i:
        return None
    old, v = w.rep[tau], wh[tau]
    part = tuple(i + 1 if k == i else i if k == i + 1 else k for k in old)
    moved = {**wh, tau: v[: i - 1] + (v[i], v[i - 1]) + v[i + 1 :]}
    alpha = Root(tau, i, i + 1)
    qspec = minimal_parabolic({t: len(x) for t, x in wh.items()}, alpha)
    lg = w.lg + weyl.length(part) - weyl.length(old)
    target = CosetRep._of_parts(list(w.rep), [part if t == tau else p for t, p in w.rep.items()], w.spec, lg)
    holds = lg == w.lg + 1 and _dominant(moved, qspec) and not _dominant(wh, qspec)
    return InductionStep(alpha, qspec, w, target), moved, holds


def find_induction_step(w: CosetRep, pspec: ParabolicSpec, h: IntegralWeight) -> InductionStep:
    """The certified covering step from w in W/W_P, for P w's own spec and
    h P-regular antidominant: alpha is the smallest (index, label) simple
    root with <alpha, w(h)> < 0, and Q = B(alpha).  Raises ValueError at
    the top coset, and ArithmeticError when a certifying fact fails."""
    pspec = _own_spec(w, pspec)
    check_shapes(shape_of(w.rep), shape_of(h))
    _check_p_regular(h, pspec)
    found = _step(w, _act(w.rep, h))
    if found is None:
        raise ValueError(f"coset {w.rep} is maximal in W/W_P; no step exists")
    step, _, holds = found
    if not holds:
        raise ArithmeticError(f"the step by {step.alpha} from {w.rep} breaks its certificate")
    return step
