"""Type-A root data for products of general linear groups.

Roots of one GL_n factor are ordered pairs ``e_i - e_j`` (``i != j``),
positive iff ``i < j``, simple iff ``j = i + 1``.  Integer weight and
coweight vectors share one representation (type A is self-dual): a mapping
from embedding label to an integer n-vector.  A parabolic subgroup is
described by its per-embedding block composition; its Levi's simple roots
are the pairs (i, i+1) inside a block.

Each input kind has one check, raising ValueError: weyl.block_slices
refuses block sizes below 1 (weyl.block_index is cached on it, so every
reader of block numbers refuses them too), weyl.check_blocks fits a
composition to a rank, and check_spec refuses an empty or non-dict spec
and fits a spec to a shape through weyl.check_shapes.  Every public spec
reader puts each spec it is given through check_spec once a call, and
those given a weight or permutation fit the spec to its shape; the
private readers (a leading underscore) take specs that have been
through it and check nothing again.  The simple roots of a checked spec,
split into Delta_P and the rest of Delta, are derived once per distinct
spec and cached.

The Weyl group acts by place permutation, (w·x)_i = x_{w^{-1}(i)}, which
makes the action a left action and gives w(e_i - e_j) = e_{w(i)} - e_{w(j)}.

>>> act({"t": (3, 1, 2)}, {"t": (5, 7, 9)})
{'t': (7, 9, 5)}
>>> dot_act({"t": (2, 1, 3)}, {"t": (2, 2, 3)})
{'t': (1, 3, 3)}
>>> pairing(Root("t", 1, 2), {"t": (1, 3, 3)})
-2
>>> check_spec({"t": (2, 1)}, {"t": 4})
Traceback (most recent call last):
    ...
ValueError: shapes differ: {'t': 4} vs {'t': 3}
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from .weyl import MultiPerm, block_index, block_slices, check_shapes, shape_of

IntegralWeight = Dict[str, Tuple[int, ...]]
ParabolicSpec = Dict[str, Tuple[int, ...]]


class Root(NamedTuple):
    """The root e_i - e_j of the factor labelled tau."""

    tau: str
    i: int
    j: int

    def negate(self) -> "Root":
        return Root(self.tau, self.j, self.i)

    @property
    def positive(self) -> bool:
        return self.i < self.j


def check_spec(spec: ParabolicSpec, shape: Optional[Dict[str, int]] = None) -> ParabolicSpec:
    """The spec with tuple blocks, refusing an empty or non-dict spec and an
    empty or non-positive composition; given a shape, also refusing labels
    or block sums that differ from it."""
    if not isinstance(spec, dict) or not spec:
        raise ValueError("spec must be a non-empty label -> blocks mapping")
    out = {tau: tuple(blocks) for tau, blocks in spec.items()}
    sums = {}
    for tau, blocks in out.items():
        if not blocks:
            raise ValueError(f"blocks at embedding {tau!r} must be positive: ()")
        sums[tau] = block_slices(blocks)[-1][1]
    if shape is not None:
        check_shapes(shape, sums)
    return out


def positive_roots(shape: Dict[str, int]) -> Tuple[Root, ...]:
    return tuple(
        Root(tau, i, j)
        for tau in sorted(shape)
        for i in range(1, shape[tau] + 1)
        for j in range(i + 1, shape[tau] + 1)
    )


@lru_cache(maxsize=None)
def _delta_split(
    key: Tuple[Tuple[str, Tuple[int, ...]], ...]
) -> Tuple[Tuple[Root, ...], Tuple[Root, ...]]:
    """(Delta_P, Delta minus Delta_P), each sorted, of the checked spec
    whose sorted items are key: a simple root (i, i+1) is in Delta_P when
    i and i+1 share a block.  Cached, so each spec is split once."""
    inside, across = [], []
    for tau, blocks in key:
        block = block_index(blocks)
        for i in range(1, len(block)):
            (inside if block[i - 1] == block[i] else across).append(Root(tau, i, i + 1))
    return tuple(inside), tuple(across)


def _simple_roots(spec: ParabolicSpec) -> Tuple[Root, ...]:
    """Delta_P: the simple roots (i, i+1) inside each block, sorted, of a
    spec that has been through check_spec.

    >>> _simple_roots({"t": (2, 1)})
    (Root(tau='t', i=1, j=2),)
    """
    return _delta_split(tuple(sorted(spec.items())))[0]


def pairing(alpha: Root, x: IntegralWeight) -> int:
    """<e_i - e_j, x> = x_i - x_j in the factor of alpha."""
    tau, i, j = alpha
    try:
        v = x[tau]
        if i > 0 and j > 0:
            return v[i - 1] - v[j - 1]
    except (KeyError, IndexError):
        pass
    raise ValueError(f"root {alpha} does not fit the shape {shape_of(x)}")


def act(w: MultiPerm, x: IntegralWeight) -> IntegralWeight:
    """Place permutation: (w·x)_i = x_{w^{-1}(i)}, so (uv)·x = u·(v·x)."""
    check_shapes(shape_of(w), shape_of(x))
    return _act(w, x)


def _act(w: MultiPerm, x: IntegralWeight) -> IntegralWeight:
    """act for w and x already known to share a shape: x_j lands at w(j)."""
    out = {}
    for tau, v in x.items():
        moved = [0] * len(v)
        for j, i in enumerate(w[tau]):
            moved[i - 1] = v[j]
        out[tau] = tuple(moved)
    return out


def act_root(w: MultiPerm, alpha: Root) -> Root:
    """w(e_i - e_j) = e_{w(i)} - e_{w(j)}."""
    part = w[alpha.tau]
    return Root(alpha.tau, part[alpha.i - 1], part[alpha.j - 1])


def staircase(shape: Dict[str, int]) -> IntegralWeight:
    """Per-embedding (n-1, n-2, ..., 0), the integer stand-in for rho.

    The usual half-sum of positive roots differs from this by a constant
    vector per embedding, which the dot action cannot see.
    """
    return {tau: tuple(range(n - 1, -1, -1)) for tau, n in shape.items()}


def dot_act(w: MultiPerm, lam: IntegralWeight) -> IntegralWeight:
    """Dot action w·lambda = w(lambda + rho) - rho, rho the staircase.

    >>> dot_act({"t": (3, 2, 1)}, {"t": (2, 2, 3)})
    {'t': (1, 2, 4)}
    """
    rho = staircase(shape_of(lam))
    shifted = {tau: tuple(a + b for a, b in zip(lam[tau], rho[tau])) for tau in lam}
    moved = act(w, shifted)
    return {tau: tuple(a - b for a, b in zip(moved[tau], rho[tau])) for tau in lam}


def inversion_set(w: MultiPerm) -> frozenset:
    """{alpha in R^+ : w(alpha) in R^-}; its cardinality is the length of w.

    >>> sorted(inversion_set({"t": (3, 2, 1)}))
    [Root(tau='t', i=1, j=2), Root(tau='t', i=1, j=3), Root(tau='t', i=2, j=3)]
    """
    return frozenset(
        alpha
        for alpha in positive_roots(shape_of(w))
        if not act_root(w, alpha).positive
    )


def dominance(x: IntegralWeight, spec: ParabolicSpec) -> bool:
    """Strict dominance for the Levi of ``spec``: <alpha, x> > 0 on every
    simple root alpha of Delta_spec.  A spec with a single block per
    embedding tests against all of Delta.

    >>> dominance({"t": (1, 0, 0)}, {"t": (2, 1)})
    True
    >>> dominance({"t": (3, 3, 0)}, {"t": (2, 1)})
    False
    """
    return _dominant(x, check_spec(spec, shape_of(x)))


def _dominant(x: IntegralWeight, spec: ParabolicSpec) -> bool:
    """dominance for a spec already fitted to the shape of x."""
    return all(pairing(alpha, x) > 0 for alpha in _simple_roots(spec))


def p_regular_antidominant(h: IntegralWeight, spec: ParabolicSpec) -> bool:
    """True iff <alpha, h> = 0 on Delta_P and < 0 on Delta minus Delta_P.

    Such an h is antidominant with stabilizer exactly W_P; the set of all
    roots pairing negatively with it is then R^+ minus R_P^+.

    >>> p_regular_antidominant({"t": (0, 0, 1)}, {"t": (2, 1)})
    True
    >>> p_regular_antidominant({"t": (0, 0, 0)}, {"t": (2, 1)})
    False
    """
    return _p_regular(h, check_spec(spec, shape_of(h)))


def _p_regular(h: IntegralWeight, spec: ParabolicSpec) -> bool:
    """p_regular_antidominant for a spec already fitted to the shape of h."""
    inside, across = _delta_split(tuple(sorted(spec.items())))
    return all(pairing(a, h) == 0 for a in inside) and all(pairing(a, h) < 0 for a in across)


def p_regular_witness(spec: ParabolicSpec) -> IntegralWeight:
    """Canonical P-regular antidominant coweight: block-constant, with
    strictly increasing block values left to right; the spec goes through
    check_spec.

    >>> p_regular_witness({"t": (2, 1)})
    {'t': (0, 0, 1)}
    """
    return {tau: block_index(blocks) for tau, blocks in check_spec(spec).items()}


if __name__ == "__main__":
    import doctest

    doctest.testmod()
