"""Type-A root data for products of general linear groups.

Roots of one GL_n factor are ordered pairs ``e_i - e_j`` (``i != j``),
positive iff ``i < j``, simple iff ``j = i + 1``.  Integer weight and
coweight vectors share one representation (type A is self-dual): a mapping
from embedding label to an integer n-vector.  A parabolic subgroup is
described by its per-embedding block composition; its Levi's simple roots
are the pairs (i, i+1) inside a block.

The Weyl group acts by place permutation, (w·x)_i = x_{w^{-1}(i)}, which
makes the action a left action and gives w(e_i - e_j) = e_{w(i)} - e_{w(j)}.

>>> act({"t": (3, 1, 2)}, {"t": (5, 7, 9)})
{'t': (7, 9, 5)}
>>> dot_act({"t": (2, 1, 3)}, {"t": (2, 2, 3)})
{'t': (1, 3, 3)}
>>> pairing(Root("t", 1, 2), {"t": (1, 3, 3)})
-2
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from .weyl import MultiPerm, multi_inverse

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

    @property
    def simple(self) -> bool:
        return self.j == self.i + 1


def shape_of(x) -> Dict[str, int]:
    """Embedding label -> rank, for weights, specs and multi-permutations."""
    return {tau: len(v) for tau, v in x.items()}


def check_spec(spec: ParabolicSpec) -> ParabolicSpec:
    out = {}
    for tau, blocks in spec.items():
        blocks = tuple(blocks)
        if not blocks or any(b <= 0 for b in blocks):
            raise ValueError(f"blocks at embedding {tau!r} must be positive: {blocks}")
        out[tau] = blocks
    return out


@lru_cache(maxsize=None)
def block_slices(blocks: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """(start, stop) of each block, 0-indexed, so block k of w is
    w[start:stop].  Refuses a block size below 1; the per-factor block
    checks go through here, and the cache keeps them off the hot path."""
    if any(size < 1 for size in blocks):
        raise ValueError(f"blocks must be positive: {blocks}")
    out = []
    start = 0
    for size in blocks:
        out.append((start, start + size))
        start += size
    return tuple(out)


def block_index(blocks: Tuple[int, ...]) -> Tuple[int, ...]:
    """Block number of each position, 0-indexed; position i is entry i-1."""
    out = []
    for b, size in enumerate(blocks):
        out.extend([b] * size)
    return tuple(out)


def simple_roots(shape: Dict[str, int]) -> Tuple[Root, ...]:
    return tuple(Root(tau, i, i + 1) for tau in sorted(shape) for i in range(1, shape[tau]))


def positive_roots(shape: Dict[str, int]) -> Tuple[Root, ...]:
    return tuple(
        Root(tau, i, j)
        for tau in sorted(shape)
        for i in range(1, shape[tau] + 1)
        for j in range(i + 1, shape[tau] + 1)
    )


def all_roots(shape: Dict[str, int]) -> Tuple[Root, ...]:
    pos = positive_roots(shape)
    return pos + tuple(a.negate() for a in pos)


def spec_simple_roots(spec: ParabolicSpec) -> Tuple[Root, ...]:
    """Delta_P: simple roots whose endpoints share a block.

    >>> spec_simple_roots({"t": (2, 1)})
    (Root(tau='t', i=1, j=2),)
    """
    out = []
    for tau in sorted(spec):
        bl = block_index(spec[tau])
        n = len(bl)
        for i in range(1, n):
            if bl[i - 1] == bl[i]:
                out.append(Root(tau, i, i + 1))
    return tuple(out)


def levi_roots(spec: ParabolicSpec, positive_only: bool = False) -> frozenset:
    """R_P (or R_P^+): roots with both endpoints in one block."""
    out = []
    for tau in sorted(spec):
        bl = block_index(spec[tau])
        n = len(bl)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if bl[i - 1] == bl[j - 1]:
                    out.append(Root(tau, i, j))
                    if not positive_only:
                        out.append(Root(tau, j, i))
    return frozenset(out)


def _check_shapes(a: Dict[str, int], b: Dict[str, int]) -> None:
    """Raise unless two shapes carry the same labels with the same ranks."""
    if a != b:
        raise ValueError(f"shapes differ: {a} vs {b}")


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
    _check_shapes(shape_of(w), shape_of(x))
    winv = multi_inverse(w)
    return {tau: tuple(x[tau][winv[tau][i] - 1] for i in range(len(x[tau]))) for tau in x}


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


def dot_act(w: MultiPerm, lam: IntegralWeight, rho: Optional[IntegralWeight] = None) -> IntegralWeight:
    """Dot action w·lambda = w(lambda + rho) - rho.

    >>> dot_act({"t": (3, 2, 1)}, {"t": (2, 2, 3)})
    {'t': (1, 2, 4)}
    """
    if rho is None:
        rho = staircase(shape_of(lam))
    shifted = {tau: tuple(a + b for a, b in zip(lam[tau], rho[tau])) for tau in lam}
    moved = act(w, shifted)
    return {tau: tuple(a - b for a, b in zip(moved[tau], rho[tau])) for tau in lam}


def inversion_set(w: MultiPerm, relative_to: Optional[ParabolicSpec] = None) -> frozenset:
    """{alpha in R^+ : w(alpha) in R^-}, minus R_P^+ when a spec is given.

    The relative variant's cardinality is the length of the minimal
    representative of w·W_P.

    >>> sorted(inversion_set({"t": (3, 2, 1)}))
    [Root(tau='t', i=1, j=2), Root(tau='t', i=1, j=3), Root(tau='t', i=2, j=3)]
    """
    inv = {
        alpha
        for alpha in positive_roots(shape_of(w))
        if not act_root(w, alpha).positive
    }
    if relative_to is not None:
        inv -= levi_roots(relative_to, positive_only=True)
    return frozenset(inv)


DOMINANCE_MODES = ("dominant", "antidominant", "strict")


def dominance(x: IntegralWeight, spec: ParabolicSpec, mode: str) -> bool:
    """Pairing-sign test against the simple roots of the Levi of ``spec``.

    dominant: >= 0 on Delta_spec; antidominant: <= 0; strict: > 0.
    A spec with a single block per embedding tests against all of Delta.

    >>> dominance({"t": (1, 3, 3)}, {"t": (2, 1)}, "dominant")
    False
    >>> dominance({"t": (1, 0, 0)}, {"t": (2, 1)}, "strict")
    True
    """
    if mode not in DOMINANCE_MODES:
        raise ValueError(f"unknown dominance mode {mode!r}")
    for alpha in spec_simple_roots(spec):
        v = pairing(alpha, x)
        if mode == "dominant" and v < 0:
            return False
        if mode == "antidominant" and v > 0:
            return False
        if mode == "strict" and v <= 0:
            return False
    return True


def p_regular_antidominant(h: IntegralWeight, spec: ParabolicSpec) -> bool:
    """True iff <alpha, h> = 0 on Delta_P and < 0 on Delta minus Delta_P.

    Such an h is antidominant with stabilizer exactly W_P; the set of all
    roots pairing negatively with it is then R^+ minus R_P^+.

    >>> p_regular_antidominant({"t": (0, 0, 1)}, {"t": (2, 1)})
    True
    >>> p_regular_antidominant({"t": (0, 0, 0)}, {"t": (2, 1)})
    False
    """
    shape = shape_of(h)
    _check_shapes(shape, {tau: sum(blocks) for tau, blocks in spec.items()})
    in_levi = set(spec_simple_roots(spec))
    for alpha in simple_roots(shape):
        v = pairing(alpha, h)
        if alpha in in_levi:
            if v != 0:
                return False
        elif v >= 0:
            return False
    return True


def p_regular_witness(spec: ParabolicSpec) -> IntegralWeight:
    """Canonical P-regular antidominant coweight: block-constant, with
    strictly increasing block values left to right.

    >>> p_regular_witness({"t": (2, 1)})
    {'t': (0, 0, 1)}
    """
    return {tau: block_index(blocks) for tau, blocks in spec.items()}


if __name__ == "__main__":
    import doctest

    doctest.testmod()
