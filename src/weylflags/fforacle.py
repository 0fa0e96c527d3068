"""Exhaustive flag-variety checks over small prime fields.

Enumerates G/P pointwise for GL_n over F_p, one enumeration for every
parabolic: the Borel is the block composition (1,...,1), and G/P is built
from its minimal Schubert cells, the points u·dot(w) of B·dot(w)·B/B for w
in W^P, which map isomorphically onto B·dot(w)·P/P.  Every point carries
its cell.  Bruhat cells of arbitrary matrices are read from elimination
pivots.  Membership of Ad(g^-1)nu in b, p, u or n_Q is one test: the
entries below the block diagonal (and, for u and n_Q, on it) vanish.  The
rest of the package reasons about these incidences combinatorially.
Everything here is counting; no claim beyond membership and cardinality
is certified.

Hard caps keep runtimes sane: n <= 4, p in {2,3,5,7}, and n = 4 only with
p <= 3.  The environment variables WEYLFLAGS_FF_MAX_N / WEYLFLAGS_FF_MAX_P
raise the caps (with a warning).  The nu-sweeping checks (fiber dimension,
weight map) additionally require n <= 3 and stay behind the same cost gate.
They build, for every flag g, the set {nu : Ad(g^{-1})nu in b} as the
Ad(g)-image {g x g^{-1} : x in b(F_p)}, p^(dim b) points rather than a
filter over all p^(n^2) matrices, and likewise for p; each set keeps its
preimages x, so the checks never conjugate nu again.  Every enumerated
flag is inverted exactly once, in _flag_inverses; the incidence counts,
the Ad(g)-images and the relative-position table read that cache.  The
weight map compares Levi-block characteristic polynomials, computed by
Faddeev-LeVerrier over the integers and reduced mod p.

The shortest-element check still visits every nu in b(F_p), but tests it
by support masks: conjugating each basis matrix E_ab (a <= b) by dot(w)
once per (w, blocks) marks the coordinates that Ad(dot(w)^{-1}) sends
outside b and outside p, and each nu, whose support mask is computed
once per (n, p), is then two integer ANDs.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .cosets import _cap, _min_reps_perm, _min_reps_with_length, min_rep_perm
from .roots import block_index, block_slices
from .weyl import Perm, check_perm, inverse, length

DEFAULT_MAX_N = 4
DEFAULT_MAX_P = 7
ENV_MAX_N = "WEYLFLAGS_FF_MAX_N"
ENV_MAX_P = "WEYLFLAGS_FF_MAX_P"


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def check_bounds(n: int, p: int) -> None:
    max_n, n_raised = _cap(ENV_MAX_N, DEFAULT_MAX_N)
    max_p, p_raised = _cap(ENV_MAX_P, DEFAULT_MAX_P)
    if n_raised or p_raised:
        warnings.warn(
            f"enumeration caps raised via environment to n<={max_n}, p<={max_p}; "
            "runtimes grow very fast",
            stacklevel=2,
        )
    # the cap comes first: trial division of a huge p would not finish
    if p > max_p:
        raise ValueError(f"p={p} outside the enumeration cap p<={max_p}")
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if not 1 <= n <= max_n:
        raise ValueError(f"n={n} outside the enumeration cap n<={max_n}")
    if n >= 4 and p > 3 and not (n_raised or p_raised):
        raise ValueError(f"n={n} is capped at p<=3, got p={p}")


# ---------------------------------------------------------------------------
# exact matrix arithmetic mod p

Rows = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class FqMatrix:
    p: int
    entries: Rows

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be a prime, got {self.p}")
        n = len(self.entries)
        norm = tuple(tuple(x % self.p for x in row) for row in self.entries)
        if any(len(row) != n for row in norm):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", norm)

    @property
    def n(self) -> int:
        return len(self.entries)


def mat_identity(n: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Rows, b: Rows, p: int) -> Rows:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


def _eliminate(
    rows: Sequence[Sequence[int]], p: int
) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Gauss-Jordan elimination mod p, taking the columns left to right.

    Rows are never swapped.  A column's pivot is the lowest row not yet
    holding a pivot whose entry there is nonzero (bruhat_cell_of relies on
    this choice; rank, inverse and RREF do not depend on it).  It is
    scaled to 1 and cleared from every other row.  Returns the worked rows
    and the (column, row) pivot pairs in column order, so the pivot rows,
    read in that order, are the reduced row echelon form."""
    work = [list(r) for r in rows]
    free = list(range(len(work) - 1, -1, -1))  # rows without a pivot, lowest first
    pivots: List[Tuple[int, int]] = []
    for c in range(len(work[0]) if work else 0):
        for k, r in enumerate(free):
            if work[r][c] % p:
                break
        else:
            if not free:
                break
            continue
        del free[k]
        inv = pow(work[r][c], p - 2, p)
        prow = work[r] = [x * inv % p for x in work[r]]
        for s, row in enumerate(work):
            if s != r:
                f = row[c] % p
                if f:
                    work[s] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append((c, r))
    return work, pivots


def mat_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(_eliminate(rows, p)[1])


def mat_inv(a: Rows, p: int) -> Rows:
    n = len(a)
    augmented = [list(row) + list(ident) for row, ident in zip(a, mat_identity(n))]
    work, pivots = _eliminate(augmented, p)
    if [c for c, _ in pivots[:n]] != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(work[r][n:]) for _, r in pivots)


def rref(rows: Sequence[Sequence[int]], p: int) -> Rows:
    """Canonical reduced row echelon form of the row space (zero rows dropped)."""
    work, pivots = _eliminate(rows, p)
    return tuple(tuple(x % p for x in work[r]) for _, r in pivots)


def perm_rows(w: Perm) -> Rows:
    # dot(w) e_j = e_{w(j)}: entry 1 at (w(j), j), no signs
    n = len(w)
    return tuple(tuple(1 if w[j] == i + 1 else 0 for j in range(n)) for i in range(n))


def perm_matrix(w: Perm, p: int) -> FqMatrix:
    return FqMatrix(p, perm_rows(check_perm(w)))


# ---------------------------------------------------------------------------
# flag enumeration

@dataclass(frozen=True)
class FlagPoint:
    """A point of G/P: canonical_matrix is u·dot(cell), u upper unipotent
    with cell_coords at the free positions of the cell, cell in W^P."""

    cell: Perm
    cell_coords: Tuple[int, ...]
    canonical_matrix: FqMatrix


def cell_free_positions(w: Perm) -> Tuple[Tuple[int, int], ...]:
    """Free coordinates of the cell of w: inversions of w^{-1}, i.e. the
    positions (i, j), i < j, with w^{-1}(i) > w^{-1}(j); there are
    length(w) of them."""
    wi = inverse(w)
    n = len(w)
    out = tuple(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if wi[i - 1] > wi[j - 1]
    )
    assert len(out) == length(w)
    return out


def _check_blocks(blocks: Tuple[int, ...], n: int) -> None:
    if sum(blocks) != n:
        raise ValueError(f"blocks {blocks} do not sum to {n}")
    block_slices(blocks)  # refuses non-positive sizes


@lru_cache(maxsize=None)
def _flags_cached(n: int, p: int, blocks: Tuple[int, ...]) -> Tuple[FlagPoint, ...]:
    """One point u·dot(w) per coset gP, the cell of each minimal
    representative w of W/W_P in turn, sorted by (length(w), w).  For w in
    W^P the cell B·dot(w)·B/B maps isomorphically onto B·dot(w)·P/P, and
    G/P is the disjoint union of these cells; the Borel is blocks (1,)*n."""
    _check_blocks(blocks, n)
    points = []
    for _, w in sorted(_min_reps_with_length(blocks)):
        pm = perm_rows(w)
        free = cell_free_positions(w)
        for coords in itertools.product(range(p), repeat=len(free)):
            rows = [list(r) for r in mat_identity(n)]
            for (i, j), value in zip(free, coords):
                rows[i - 1][j - 1] = value
            m = mat_mul(tuple(tuple(r) for r in rows), pm, p)
            points.append(FlagPoint(w, coords, FqMatrix(p, m)))
    return tuple(points)


def enumerate_flags(n: int, p: int) -> List[FlagPoint]:
    """Every Borel coset of GL_n(F_p) exactly once, as u·dot(w) cell
    representatives; sorted by (cell length, cell, coordinates)."""
    check_bounds(n, p)
    return list(_flags_cached(n, p, (1,) * n))


def bruhat_cell_of(g: FqMatrix) -> Perm:
    """The unique w with g in B·dot(w)·B, from lower-left rank profiles.

    With r(i, j) the rank of rows i..n, columns 1..j, w(j) is the row i
    where r(i, j) - r(i+1, j) - r(i, j-1) + r(i+1, j-1) = 1.  Eliminating
    column by column with the lowest free row as pivot finds those rows in
    one pass: the pivot of column j sits in row w(j), since free rows only
    gain multiples of lower rows, as under left multiplication by B."""
    _, pivots = _eliminate(g.entries, g.p)
    if len(pivots) != g.n:
        raise ValueError("singular matrix")
    return check_perm(tuple(r + 1 for _, r in pivots))


def flag_key(g: FqMatrix) -> Tuple[Rows, ...]:
    """Canonical label of the full flag of g: RREF of the span of the
    first k columns for k = 1..n-1.  Equal keys <=> equal cosets gB."""
    return partial_flag_key(g, (1,) * g.n)


def partial_flag_key(g: FqMatrix, blocks: Tuple[int, ...]) -> Tuple[Rows, ...]:
    """Canonical label of the partial flag of g for the block composition:
    the same spans at the proper prefix sums of the blocks."""
    _check_blocks(tuple(blocks), g.n)
    cols = tuple(zip(*g.entries))
    return tuple(rref(cols[:k], g.p) for k in itertools.accumulate(blocks[:-1]))


def enumerate_partial_flags(n: int, p: int, blocks: Tuple[int, ...]) -> List[FqMatrix]:
    """One representative matrix per coset gP: the points of the cells of
    the minimal representatives, in the order of enumerate_flags."""
    check_bounds(n, p)
    return [point.canonical_matrix for point in _flags_cached(n, p, tuple(blocks))]


# ---------------------------------------------------------------------------
# adjoint membership masks

@lru_cache(maxsize=None)
def _zero_positions(blocks: Tuple[int, ...], diagonal: bool) -> Tuple[Tuple[int, int], ...]:
    """The entries (i, j), 0-indexed, that vanish on p for the block
    composition: i's block after j's, and with diagonal also i and j in
    one block (the nilradical).  b and u are blocks (1,)*n."""
    bl = block_index(blocks)
    return tuple(
        (i, j) for i, a in enumerate(bl) for j, b in enumerate(bl) if a > b or diagonal and a == b
    )


def _p_positions(blocks: Tuple[int, ...]) -> List[Tuple[int, int]]:
    """The coordinates of p, 0-indexed, row by row: (i, j) with i's block
    not after j's."""
    bl = block_index(blocks)
    return [(i, j) for i, a in enumerate(bl) for j, b in enumerate(bl) if a <= b]


def _in_blocks(m: Rows, blocks: Tuple[int, ...], diagonal: bool) -> bool:
    return not any(m[i][j] for i, j in _zero_positions(blocks, diagonal))


def in_b(m: Rows) -> bool:
    return _in_blocks(m, (1,) * len(m), False)


def in_u(m: Rows) -> bool:
    return _in_blocks(m, (1,) * len(m), True)


def in_p_blocks(m: Rows, blocks: Tuple[int, ...]) -> bool:
    return _in_blocks(m, tuple(blocks), False)


def in_nq_blocks(m: Rows, blocks: Tuple[int, ...]) -> bool:
    return _in_blocks(m, tuple(blocks), True)


CONDITIONS = ("in_b", "in_p", "in_u", "in_nQ")
SPACES = ("full_flag", "partial_flag")


def _condition_test(condition, blocks, qblocks):
    """m -> whether m lies in the subalgebra the condition names: p or n_Q
    for their blocks, b or u for blocks (1,)*n."""
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; pick one of {CONDITIONS}")
    name, parabolic = {"in_p": ("blocks", blocks), "in_nQ": ("qblocks", qblocks)}.get(condition, ("", ()))
    if parabolic is None:
        raise ValueError(f"condition {condition} needs {name}")
    parabolic = tuple(parabolic)
    diagonal = condition in ("in_u", "in_nQ")
    return lambda m: _in_blocks(m, parabolic or (1,) * len(m), diagonal)


@lru_cache(maxsize=None)
def _flag_inverses(n: int, p: int, blocks: Tuple[int, ...]) -> Tuple[Rows, ...]:
    """g^{-1} for every cached flag g of G/P, in cache order: the only
    place a flag is inverted, so every flag is inverted once."""
    return tuple(mat_inv(point.canonical_matrix.entries, p) for point in _flags_cached(n, p, blocks))


@dataclass(frozen=True)
class IncidenceReport:
    count: int
    witnesses: tuple
    by_cell: Tuple[Tuple[Perm, int], ...]


def incidence_count(
    nu: FqMatrix,
    condition: str,
    space: str,
    blocks: Optional[Tuple[int, ...]] = None,
    qblocks: Optional[Tuple[int, ...]] = None,
) -> IncidenceReport:
    """Count flag (or partial-flag) points g with Ad(g^{-1})nu in the
    requested subalgebra; the witnesses (FlagPoints in both spaces) and a
    per-cell breakdown ride along."""
    n = nu.n
    p = nu.p
    check_bounds(n, p)
    test = _condition_test(condition, blocks, qblocks)
    for parabolic in (blocks, qblocks):
        if parabolic is not None:
            _check_blocks(tuple(parabolic), n)
    if space == "partial_flag" and blocks is None:
        raise ValueError("partial_flag space needs blocks")
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}; pick one of {SPACES}")
    flag_blocks = (1,) * n if space == "full_flag" else tuple(blocks)
    points = _flags_cached(n, p, flag_blocks)
    witnesses = []
    by_cell: Dict[Perm, int] = {}
    for point, ginv in zip(points, _flag_inverses(n, p, flag_blocks)):
        if test(mat_mul(ginv, mat_mul(nu.entries, point.canonical_matrix.entries, p), p)):
            witnesses.append(point)
            by_cell[point.cell] = by_cell.get(point.cell, 0) + 1
    # the points come sorted by (length, cell), so by_cell is too
    return IncidenceReport(count=len(witnesses), witnesses=tuple(witnesses), by_cell=tuple(by_cell.items()))


# ---------------------------------------------------------------------------
# pairwise incidence: fibers and the weight map

def relative_position_pair(g1: FqMatrix, g2: FqMatrix, blocks: Tuple[int, ...]) -> Perm:
    """The W/W_P position of (g1 B, g2 P): minimal representative of the
    cell of g1^{-1} g2."""
    if g1.p != g2.p:
        raise ValueError("field mismatch")
    return _position(mat_inv(g1.entries, g1.p), g2.entries, tuple(blocks), g1.p)


def _position(g1inv: Rows, g2: Rows, blocks: Tuple[int, ...], p: int) -> Perm:
    """relative_position_pair for a g1 given by its inverse."""
    return min_rep_perm(bruhat_cell_of(FqMatrix(p, mat_mul(g1inv, g2, p))), blocks)


@lru_cache(maxsize=None)
def _in_p_sets(n: int, p: int, blocks: Tuple[int, ...]):
    """For each flag g of G/P, {index of nu: Ad(g^{-1})nu} over the nu
    with Ad(g^{-1})nu in p.  That set is exactly {g x g^{-1} : x in p},
    so it is walked from x, one coordinate of p at a time, adding
    multiples of the images g E_ij g^{-1}.  The index of nu is its base-p
    value read row by row, first entry most significant."""
    positions = _p_positions(blocks)
    out = []
    for point, ginv in zip(_flags_cached(n, p, blocks), _flag_inverses(n, p, blocks)):
        g = point.canonical_matrix.entries
        # (nu flattened, coordinates of x), in itertools.product order
        points = [((0,) * (n * n), ())]
        for i, j in positions:
            # g E_ij g^{-1} is column i of g times row j of g^{-1}
            basis = [g[a][i] * ginv[j][b] for a in range(n) for b in range(n)]
            points = [
                (tuple((x + c * y) % p for x, y in zip(flat, basis)), coords + (c,))
                for flat, coords in points
                for c in range(p)
            ]
        image = {}
        for flat, coords in points:
            index = 0
            for value in flat:
                index = index * p + value
            rows = [[0] * n for _ in range(n)]
            for (i, j), value in zip(positions, coords):
                rows[i][j] = value
            image[index] = tuple(map(tuple, rows))
        assert len(image) == p ** len(positions), (g, positions)
        out.append(image)
    return tuple(out)


@lru_cache(maxsize=None)
def _position_table(n: int, p: int, blocks: Tuple[int, ...]):
    """positions[full_index][partial_index] over the cached enumerations,
    conjugating by the cached inverses of the full flags."""
    partial = [point.canonical_matrix.entries for point in _flags_cached(n, p, blocks)]
    return tuple(
        tuple(_position(g1inv, g2, blocks, p) for g2 in partial)
        for g1inv in _flag_inverses(n, p, (1,) * n)
    )


def _pairs_in_position(w: Perm, blocks: Tuple[int, ...], p: int):
    """The Ad-image sets (s1, s2) of the flags g1 B and g2 P of every pair
    in relative position w.  The inputs are checked at once; the pairs
    are generated as they are read."""
    n = len(w)
    check_bounds(n, p)
    if n > 3:
        raise ValueError(
            f"nu sweep enumerates the Ad(g)-images of b and p for every flag; "
            f"n={n} is beyond the n<=3 bound"
        )
    if w != min_rep_perm(w, blocks):
        raise ValueError(f"{w} is not a minimal coset representative for {blocks}")
    full_sets = _in_p_sets(n, p, (1,) * n)
    partial_sets = _in_p_sets(n, p, blocks)
    positions = _position_table(n, p, blocks)
    return (
        (s1, s2)
        for row, s1 in zip(positions, full_sets)
        for position, s2 in zip(row, partial_sets)
        if position == w
    )


@dataclass(frozen=True)
class FiberReport:
    passed: bool
    expected: int
    histogram: Tuple[Tuple[int, int], ...]  # (fiber size, number of pairs)
    pairs: int


def fiber_dimension_check(w: Perm, blocks: Tuple[int, ...], p: int) -> FiberReport:
    """Over every pair (g1 B, g2 P) in relative position w, the incidence
    fiber {nu : Ad(g1^{-1})nu in b, Ad(g2^{-1})nu in p} must have exactly
    p^(dim b - lg_P(w)) points, dim b = n(n+1)/2."""
    w = check_perm(w)
    pairs = _pairs_in_position(w, tuple(blocks), p)
    n = len(w)
    expected = p ** (n * (n + 1) // 2 - length(w))
    histogram = Counter(len(s1.keys() & s2.keys()) for s1, s2 in pairs)
    count = sum(histogram.values())
    return FiberReport(
        passed=count > 0 and set(histogram) == {expected},
        expected=expected,
        histogram=tuple(sorted(histogram.items())),
        pairs=count,
    )


# polynomial helpers for block characteristic polynomials (coefficients mod p,
# lowest degree first)

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def charpoly(m: Rows, p: int) -> Tuple[int, ...]:
    """det(X·I - m) as a coefficient tuple mod p, constant term first.

    Faddeev-LeVerrier over the integers, reduced mod p at the end: with
    A_1 = m, c_{n-k} = -tr(A_k)/k and A_{k+1} = m (A_k + c_{n-k} I).  The
    division by k is exact for an integer matrix."""
    n = len(m)
    coeffs = [0] * n + [1]
    a = m
    for k in range(1, n + 1):
        c = coeffs[n - k] = -sum(a[i][i] for i in range(n)) // k
        if k < n:
            shifted = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
            cols = tuple(zip(*shifted))
            a = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in m]
    return tuple(x % p for x in coeffs)


def weight_map_check(blocks: Tuple[int, ...], w: Perm, p: int) -> bool:
    """At every F_p point (nu, g1 B, g2 P) with the pair in position w:
    the per-block characteristic polynomials of the Levi part of
    Ad(g2^{-1})nu equal prod_{j in block}(X - d_{w(j)}), where d is the
    diagonal of Ad(g1^{-1})nu."""
    w = check_perm(w)
    blocks = tuple(blocks)
    for s1, s2 in _pairs_in_position(w, blocks, p):
        for idx in s1.keys() & s2.keys():
            weights = tuple(s1[idx][k - 1][k - 1] for k in w)
            if _levi_charpolys(s2[idx], blocks, p) != _block_root_polys(weights, blocks, p):
                return False
    return True


# Both caches are keyed by value: every partial flag's Ad(g2^{-1})nu ranges
# over the same p(F_p), so each x there has its Levi part expanded once,
# however many flags and positions w share it.
@lru_cache(maxsize=None)
def _levi_charpolys(m: Rows, blocks: Tuple[int, ...], p: int) -> Tuple[Tuple[int, ...], ...]:
    """The characteristic polynomial of each diagonal block of m."""
    return tuple(
        charpoly(tuple(row[lo:hi] for row in m[lo:hi]), p) for lo, hi in block_slices(blocks)
    )


@lru_cache(maxsize=None)
def _block_root_polys(
    roots: Tuple[int, ...], blocks: Tuple[int, ...], p: int
) -> Tuple[Tuple[int, ...], ...]:
    """prod_{j in block}(X - roots[j]) for each block, in charpoly layout."""
    out = []
    for lo, hi in block_slices(blocks):
        poly = (1,)
        for root in roots[lo:hi]:
            poly = _poly_mul(poly, ((-root) % p, 1), p)
        out.append(poly)
    return tuple(out)


# ---------------------------------------------------------------------------
# the blow-up equation and good forms

def blowup_equation_check(p: int) -> bool:
    """For 2x2 b = [[c+t, y], [0, c-t]] and the lower elementary u(x):
    Ad(u(x))^{-1} b is upper triangular iff 2xt + x^2 y = 0 over F_p, with
    the sign relation lower_left = -(2xt + x^2 y) pinned by direct
    computation; the solution-set case split is asserted as well."""
    if p == 2:
        raise ValueError("p=2 rejected: the equation carries a coefficient 2")
    check_bounds(2, p)
    for t, y, x, c in itertools.product(range(p), repeat=4):
        b = ((c + t) % p, y), (0, (c - t) % p)
        u = ((1, 0), (x, 1))
        uinv = ((1, 0), ((-x) % p, 1))
        m = mat_mul(uinv, mat_mul(b, u, p), p)
        q = (2 * x * t + x * x * y) % p
        assert m[1][0] == (-q) % p
        if (m[1][0] == 0) != (q == 0):
            return False
    for t, y in itertools.product(range(p), repeat=2):
        sols = {x for x in range(p) if (2 * x * t + x * x * y) % p == 0}
        if t == 0 and y == 0:
            expected = set(range(p))
        elif y == 0 or t == 0:
            expected = {0}
        else:
            expected = {0, (-2 * t * pow(y, p - 2, p)) % p}
        if sols != expected:
            return False
    return True


def good_form_conjugate(v, p: Optional[int] = None):
    """Conjugate an upper-triangular v by an upper unipotent b so that
    v' = b^{-1} v b has zero entries wherever the two diagonal values
    differ.  Works over F_p (pass an FqMatrix) or exact rationals; only
    the unit, the normalisation and the division depend on the field.

    Sweeps columns left to right, rows bottom-up inside a column,
    conjugating by I + v_kj/(v_jj - v_kk)·E_kj; each step clears (k, j)
    without touching entries already cleared.  Returns (b, v').
    """
    modular = isinstance(v, FqMatrix)
    if modular:
        if p is not None and p != v.p:
            raise ValueError("p disagrees with the matrix field")
        p = v.p
        rows = [list(r) for r in v.entries]
        one = 1

        def div(a, b):
            return a * pow(b % p, p - 2, p) % p

        def norm(x):
            return x % p

    else:
        if p is not None:
            raise ValueError("pass an FqMatrix for mod-p input")
        rows = [[Fraction(x) for x in row] for row in v]
        one = Fraction(1)

        def div(a, b):
            return a / b

        def norm(x):
            return x

    n = len(rows)
    if not in_b(rows):
        raise ValueError("input is not upper triangular")
    original = [row[:] for row in rows]
    ident = [[one * (i == j) for j in range(n)] for i in range(n)]
    b = [row[:] for row in ident]
    binv = [row[:] for row in ident]
    for j in range(2, n + 1):
        for k in range(j - 1, 0, -1):
            if rows[k - 1][k - 1] == rows[j - 1][j - 1]:
                continue
            c = div(rows[k - 1][j - 1], rows[j - 1][j - 1] - rows[k - 1][k - 1])
            if c == 0:
                continue
            # v <- (I - c E_kj) v (I + c E_kj); E_kj v E_kj = 0 for upper v
            for r in range(n):
                rows[r][j - 1] = norm(rows[r][j - 1] + c * rows[r][k - 1])
            for l in range(n):
                rows[k - 1][l] = norm(rows[k - 1][l] - c * rows[j - 1][l])
            for r in range(n):
                b[r][j - 1] = norm(b[r][j - 1] + c * b[r][k - 1])
            for l in range(n):
                binv[k - 1][l] = norm(binv[k - 1][l] - c * binv[j - 1][l])

    def mul(x, y):
        return [[norm(sum(x[i][t] * y[t][j] for t in range(n))) for j in range(n)] for i in range(n)]

    # postconditions: entries across distinct diagonal values vanish and
    # the result really is the conjugate
    for i in range(n):
        for j in range(n):
            if original[i][i] != original[j][j]:
                assert rows[i][j] == 0
    assert mul(mul(binv, original), b) == rows
    assert mul(binv, b) == ident
    b, rows = tuple(map(tuple, b)), tuple(map(tuple, rows))
    return (FqMatrix(p, b), FqMatrix(p, rows)) if modular else (b, rows)


# ---------------------------------------------------------------------------
# whole-structure identities and the check suite

def q_factorial(n: int, p: int) -> int:
    out = 1
    for k in range(1, n + 1):
        out *= sum(p**i for i in range(k))
    return out


def gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


def borel_order(n: int, p: int) -> int:
    return (p - 1) ** n * p ** (n * (n - 1) // 2)


def point_count_identity(n: int, p: int) -> Dict[str, object]:
    """Three routes to |G/B| must agree (cell sum, q-factorial, group
    order quotient); points must be pairwise distinct cosets and each
    must classify back into its own cell."""
    check_bounds(n, p)
    flags = _flags_cached(n, p, (1,) * n)
    by_cells = sum(
        p ** length(w) for w in itertools.permutations(range(1, n + 1))
    )
    qf = q_factorial(n, p)
    quotient = gl_order(n, p) // borel_order(n, p)
    keys = {flag_key(point.canonical_matrix) for point in flags}
    roundtrip = all(
        bruhat_cell_of(point.canonical_matrix) == point.cell for point in flags
    )
    passed = (
        len(flags) == by_cells == qf == quotient
        and len(keys) == len(flags)
        and roundtrip
    )
    return {
        "enumerated": len(flags),
        "cell_sum": by_cells,
        "q_factorial": qf,
        "group_quotient": quotient,
        "distinct_cosets": len(keys),
        "cells_roundtrip": roundtrip,
        "pass": passed,
    }


@lru_cache(maxsize=None)
def _b_supports(n: int, p: int) -> Tuple[int, ...]:
    """For every nu in b(F_p), in itertools.product order over the
    coordinates of b: the bitmask of its nonzero coordinates (bit k for
    the k-th coordinate)."""
    width = n * (n + 1) // 2
    out = []
    for values in itertools.product(range(p), repeat=width):
        mask = 0
        for k, value in enumerate(values):
            if value:
                mask |= 1 << k
        out.append(mask)
    return tuple(out)


def _ad_off_masks(w: Perm, blocks: Tuple[int, ...], p: int) -> Tuple[int, int]:
    """The coordinates of b that Ad(dot(w)^{-1}) sends outside b, and
    outside p, as bitmasks in the layout of _b_supports.  Each basis
    matrix E_ab goes to a single entry 1, so Ad(dot(w)^{-1})nu lies in b
    (or p) exactly when the support of nu misses the first (or second)
    mask: Ad is linear and b, p are coordinate subspaces."""
    n = len(w)
    pm = perm_rows(w)
    pmi = perm_rows(inverse(w))
    off_b = off_p = 0
    for k, (a, b) in enumerate(_p_positions((1,) * n)):
        basis = tuple(tuple(int((i, j) == (a, b)) for j in range(n)) for i in range(n))
        m = mat_mul(pmi, mat_mul(basis, pm, p), p)
        support = [m[i][j] for i in range(n) for j in range(n) if m[i][j]]
        assert support == [1], (w, (a, b), m)
        if not in_b(m):
            off_b |= 1 << k
        if not in_p_blocks(m, blocks):
            off_p |= 1 << k
    return off_b, off_p


def shortest_element_fq_check(w: Perm, blocks: Tuple[int, ...], p: int) -> bool:
    """Minimal coset representatives are exactly the w for which
    Ad(dot(w)^{-1}) maps b-membership onto p-membership over F_p: for
    w in W^P the two memberships agree for every nu in b; for w not in
    W^P a counterexample nu (in p but not in b) must exist.

    Every nu in b(F_p) is visited; each costs two mask tests against
    the images of the basis matrices (see _ad_off_masks)."""
    w = check_perm(w)
    blocks = tuple(blocks)
    n = len(w)
    check_bounds(n, p)
    is_rep = w == min_rep_perm(w, blocks)
    off_b, off_p = _ad_off_masks(w, blocks, p)
    for support in _b_supports(n, p):
        inb = not support & off_b
        inp = not support & off_p
        if inb and not inp:
            return False
        if is_rep and inp != inb:
            return False
        if not is_rep and inp and not inb:
            return True
    return is_rep


def covering_degree_check(blocks: Tuple[int, ...], p: int) -> Dict[str, object]:
    """A split regular semisimple nu = diag(0..n-1) must lie in exactly
    |W/W_P| partial-flag Lie algebras."""
    blocks = tuple(blocks)
    n = sum(blocks)
    check_bounds(n, p)
    if p < n:
        raise ValueError(f"need p >= n for n distinct diagonal values, got p={p}")
    nu = FqMatrix(p, tuple(tuple(i if i == j else 0 for j in range(n)) for i in range(n)))
    report = incidence_count(nu, "in_p", "partial_flag", blocks=blocks)
    expected = math.factorial(n)
    for size in blocks:
        expected //= math.factorial(size)
    return {"expected": expected, "observed": report.count, "pass": report.count == expected}


def _compositions(n: int) -> List[Tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return out


# run_suite skips (or, for explicit requests, refuses) sweeps whose cost
# exceeds these gates
BOREL_SWEEP_GATE = 3_000_000
NU_SWEEP_GATE = 600_000


def _over_gate(label: str, cost: int, gate: int) -> Optional[str]:
    return f"{label} sweep cost {cost} > {gate}" if cost > gate else None


def _borel_sweep_refusal(n: int, p: int) -> Optional[str]:
    cost = p ** (n * (n + 1) // 2) * math.factorial(n) * 2 ** (n - 1)
    return _over_gate("borel", cost, BOREL_SWEEP_GATE)


def _nu_sweep_refusal(n: int, p: int) -> Optional[str]:
    # every n > 3 exceeds the gate, so the n <= 3 bound of the nu sweeps
    # never trips inside run_suite
    return _over_gate("nu", p ** (n * n) * q_factorial(n, p), NU_SWEEP_GATE)


def _never_refused(n: int, p: int) -> Optional[str]:
    return None


# Each rows function yields (params beyond n and p, expected, observed,
# pass).  They look the public checks up as module globals when they run,
# so wrappers installed on those names after import still see the calls.

def _point_count_rows(n: int, p: int):
    result = point_count_identity(n, p)
    yield {}, result["q_factorial"], result["enumerated"], bool(result["pass"])


def _incidence_zero_rows(n: int, p: int):
    nu = FqMatrix(p, tuple(tuple(0 for _ in range(n)) for _ in range(n)))
    report = incidence_count(nu, "in_b", "full_flag")
    expected = q_factorial(n, p)
    yield {"condition": "in_b"}, expected, report.count, report.count == expected


def _shortest_element_rows(n: int, p: int):
    ok = True
    for blocks in _compositions(n):
        for w in map(tuple, itertools.permutations(range(1, n + 1))):
            if not shortest_element_fq_check(w, blocks, p):
                ok = False
    yield {"sweep": "all (w, blocks)"}, True, ok, ok


def _covering_degree_rows(n: int, p: int):
    for blocks in _compositions(n):
        result = covering_degree_check(blocks, p)
        yield {"blocks": list(blocks)}, result["expected"], result["observed"], bool(result["pass"])


def _fiber_dimension_rows(n: int, p: int):
    for blocks in _compositions(n):
        for w in _min_reps_perm(blocks):
            report = fiber_dimension_check(w, blocks, p)
            params = {"blocks": list(blocks), "w": list(w)}
            yield params, report.expected, dict(report.histogram), report.passed


def _weight_map_rows(n: int, p: int):
    for blocks in _compositions(n):
        for w in _min_reps_perm(blocks):
            ok = weight_map_check(blocks, w, p)
            yield {"blocks": list(blocks), "w": list(w)}, True, ok, ok


def _blowup_rows(n: int, p: int):
    ok = blowup_equation_check(p)
    yield {}, True, ok, ok


def _good_form_rows(n: int, p: int):
    rng = random.Random(20240811)
    ok = True
    trials = 0
    for _ in range(60):
        size = rng.randint(1, n)
        diag = [rng.randint(0, 2) for _ in range(size)]
        rows_q = [
            [
                Fraction(diag[i]) if i == j
                else (Fraction(rng.randint(-4, 4)) if j > i else Fraction(0))
                for j in range(size)
            ]
            for i in range(size)
        ]
        _, vq = good_form_conjugate(rows_q)
        entries = tuple(
            tuple(rng.randrange(p) if j > i else (rng.randrange(p) if i == j else 0) for j in range(size))
            for i in range(size)
        )
        _, vp = good_form_conjugate(FqMatrix(p, entries))
        trials += 1
        for i in range(size):
            for j in range(size):
                if rows_q[i][i] != rows_q[j][j] and vq[i][j] != 0:
                    ok = False
                if entries[i][i] != entries[j][j] and vp.entries[i][j] != 0:
                    ok = False
    yield {"trials": trials}, True, ok, ok


# name -> (refusal: (n, p) -> reason or None, the params of (n, p) its
# rows carry, rows function); the order is the order of --suite all
_CHECKS = {
    "point_count": (_never_refused, ("n", "p"), _point_count_rows),
    "incidence_zero": (_never_refused, ("n", "p"), _incidence_zero_rows),
    "shortest_element": (_borel_sweep_refusal, ("n", "p"), _shortest_element_rows),
    "covering_degree": (
        lambda n, p: "needs p >= n" if p < n else None, ("n", "p"), _covering_degree_rows
    ),
    "fiber_dimension": (_nu_sweep_refusal, ("n", "p"), _fiber_dimension_rows),
    "weight_map": (_nu_sweep_refusal, ("n", "p"), _weight_map_rows),
    "blowup": (lambda n, p: "needs p != 2" if p == 2 else None, ("p",), _blowup_rows),
    "good_form": (_never_refused, ("n", "p"), _good_form_rows),
}

SUITE_CHECKS = tuple(_CHECKS)


def run_suite(n: int, p: int, checks: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    """Run the named checks (default: every check runnable at (n, p)) and
    return one report row per (check, params) with expected/observed/pass.

    When no explicit list is given, checks whose preconditions fail at
    (n, p) are skipped with a note instead of erroring; explicitly
    requested checks raise instead, naming the reason (for a sweep, its
    cost and gate).  An explicit empty list raises too.
    """
    check_bounds(n, p)
    explicit = checks is not None
    selected = list(checks) if explicit else list(SUITE_CHECKS)
    if not selected:
        raise ValueError(f"no checks selected; pick from {SUITE_CHECKS}")
    for name in selected:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; pick from {SUITE_CHECKS}")
    rows: List[Dict[str, object]] = []
    for name in selected:
        refusal, keys, check_rows = _CHECKS[name]
        base = {key: value for key, value in (("n", n), ("p", p)) if key in keys}
        reason = refusal(n, p)
        if reason is not None:
            if explicit:
                raise ValueError(f"{name} refused at n={n}, p={p}: {reason}")
            rows.append(
                {"check": name, "params": base, "expected": None, "observed": f"skipped: {reason}", "pass": True, "skipped": True}
            )
            continue
        for extra, expected, observed, ok in check_rows(n, p):
            rows.append(
                {"check": name, "params": {**base, **extra}, "expected": expected, "observed": observed, "pass": ok}
            )
    return rows
