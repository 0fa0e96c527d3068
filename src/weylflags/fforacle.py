"""Exhaustive flag-variety checks over small prime fields.

Enumerates G/B and G/P pointwise for GL_n over F_p, classifies points into
Bruhat cells by lower-left rank profiles, and brute-forces the adjoint
incidence conditions (Ad(g^-1)nu lying in b, p, u or n_Q) that the rest of
the package reasons about combinatorially.  Everything here is counting;
no claim beyond membership and cardinality is certified.

Hard caps keep runtimes sane: n <= 4, p in {2,3,5,7}, and n = 4 only with
p <= 3.  The environment variables WEYLFLAGS_FF_MAX_N / WEYLFLAGS_FF_MAX_P
raise the caps (with a warning).  The nu-sweeping checks (fiber dimension,
weight map) additionally require n <= 3 and stay behind the same cost gate.
They build, for every flag g, the set {nu : Ad(g^{-1})nu in b} as the
Ad(g)-image {g x g^{-1} : x in b(F_p)}, p^(dim b) points rather than a
filter over all p^(n^2) matrices, and likewise for p; each set keeps its
preimages x, so the checks never conjugate nu again.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .cosets import _cap, _min_reps_perm, min_rep_perm
from .roots import block_index
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
    n = len(a)
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


@lru_cache(maxsize=None)
def _flags_cached(n: int, p: int) -> Tuple[FlagPoint, ...]:
    points = []
    perms = sorted(itertools.permutations(range(1, n + 1)), key=lambda w: (length(w), w))
    for w in perms:
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
    return list(_flags_cached(n, p))


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


def _column_space_rows(g: FqMatrix, k: int) -> Rows:
    cols = tuple(zip(*g.entries))
    return rref(cols[:k], g.p)


def flag_key(g: FqMatrix) -> Tuple[Rows, ...]:
    """Canonical label of the full flag of g: RREF of the span of the
    first k columns for k = 1..n-1.  Equal keys <=> equal cosets gB."""
    return tuple(_column_space_rows(g, k) for k in range(1, g.n))


def partial_flag_key(g: FqMatrix, blocks: Tuple[int, ...]) -> Tuple[Rows, ...]:
    """Canonical label of the partial flag of g for the block composition:
    subspace spans at the proper prefix sums of the blocks."""
    if sum(blocks) != g.n:
        raise ValueError(f"blocks {blocks} do not sum to {g.n}")
    prefixes = list(itertools.accumulate(blocks))[:-1]
    return tuple(_column_space_rows(g, k) for k in prefixes)


@lru_cache(maxsize=None)
def _partial_flags_cached(n: int, p: int, blocks: Tuple[int, ...]) -> Tuple[FqMatrix, ...]:
    seen = {}
    for point in _flags_cached(n, p):
        key = partial_flag_key(point.canonical_matrix, blocks)
        if key not in seen:
            seen[key] = point.canonical_matrix
    return tuple(seen.values())


def enumerate_partial_flags(n: int, p: int, blocks: Tuple[int, ...]) -> List[FqMatrix]:
    """One representative matrix per coset gP, in first-seen cell order."""
    check_bounds(n, p)
    return list(_partial_flags_cached(n, p, tuple(blocks)))


# ---------------------------------------------------------------------------
# adjoint membership masks

def _b_positions(n: int) -> List[Tuple[int, int]]:
    """The coordinates of b: (i, j) with i <= j, 0-indexed."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def in_b(m: Rows) -> bool:
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i))


def in_u(m: Rows) -> bool:
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i + 1))


def in_p_blocks(m: Rows, blocks: Tuple[int, ...]) -> bool:
    bl = block_index(blocks)
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(n) if bl[i] > bl[j])


def in_nq_blocks(m: Rows, blocks: Tuple[int, ...]) -> bool:
    bl = block_index(blocks)
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(n) if bl[i] >= bl[j])


def adjoint(g: FqMatrix, nu: FqMatrix) -> Rows:
    """Ad(g^{-1}) nu = g^{-1} nu g."""
    if g.p != nu.p:
        raise ValueError("field mismatch")
    ginv = mat_inv(g.entries, g.p)
    return mat_mul(ginv, mat_mul(nu.entries, g.entries, g.p), g.p)


CONDITIONS = ("in_b", "in_p", "in_u", "in_nQ")
SPACES = ("full_flag", "partial_flag")


def _condition_test(condition, blocks, qblocks):
    if condition == "in_b":
        return in_b
    if condition == "in_u":
        return in_u
    if condition == "in_p":
        if blocks is None:
            raise ValueError("condition in_p needs blocks")
        return lambda m: in_p_blocks(m, blocks)
    if condition == "in_nQ":
        if qblocks is None:
            raise ValueError("condition in_nQ needs qblocks")
        return lambda m: in_nq_blocks(m, qblocks)
    raise ValueError(f"unknown condition {condition!r}; pick one of {CONDITIONS}")


@lru_cache(maxsize=None)
def _flag_inverses(n: int, p: int, blocks: Optional[Tuple[int, ...]]) -> Tuple[Rows, ...]:
    """g^{-1} for every cached full flag (blocks None) or partial flag g,
    in cache order, so incidence_count conjugates without inverting."""
    if blocks is None:
        mats = [point.canonical_matrix for point in _flags_cached(n, p)]
    else:
        mats = _partial_flags_cached(n, p, blocks)
    return tuple(mat_inv(g.entries, p) for g in mats)


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
    requested subalgebra; witnesses and a per-cell breakdown ride along."""
    n = nu.n
    p = nu.p
    check_bounds(n, p)
    test = _condition_test(condition, blocks, qblocks)
    if space == "partial_flag" and blocks is None:
        raise ValueError("partial_flag space needs blocks")
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}; pick one of {SPACES}")
    partial = None if space == "full_flag" else tuple(blocks)
    points = _flags_cached(n, p) if partial is None else _partial_flags_cached(n, p, partial)
    witnesses = []
    by_cell: Dict[Perm, int] = {}
    for point, ginv in zip(points, _flag_inverses(n, p, partial)):
        g = point.canonical_matrix if partial is None else point
        if test(mat_mul(ginv, mat_mul(nu.entries, g.entries, p), p)):
            witnesses.append(point)
            cell = point.cell if partial is None else min_rep_perm(bruhat_cell_of(g), partial)
            by_cell[cell] = by_cell.get(cell, 0) + 1
    return IncidenceReport(
        count=len(witnesses),
        witnesses=tuple(witnesses),
        by_cell=tuple(sorted(by_cell.items(), key=lambda kv: (length(kv[0]), kv[0]))),
    )


# ---------------------------------------------------------------------------
# pairwise incidence: fibers and the weight map

def relative_position_pair(g1: FqMatrix, g2: FqMatrix, blocks: Tuple[int, ...]) -> Perm:
    """The W/W_P position of (g1 B, g2 P): minimal representative of the
    cell of g1^{-1} g2."""
    if g1.p != g2.p:
        raise ValueError("field mismatch")
    m = FqMatrix(g1.p, mat_mul(mat_inv(g1.entries, g1.p), g2.entries, g1.p))
    return min_rep_perm(bruhat_cell_of(m), tuple(blocks))


def _require_small_for_nu_sweep(n: int) -> None:
    if n > 3:
        raise ValueError(
            f"nu sweep enumerates the Ad(g)-images of b and p for every flag; "
            f"n={n} is beyond the n<=3 bound"
        )


def _ad_images(flags: Sequence[FqMatrix], positions: Sequence[Tuple[int, int]], p: int):
    """For each flag g, {index of nu: Ad(g^{-1})nu} over the nu with
    Ad(g^{-1})nu supported on positions.  That set is exactly
    {g x g^{-1} : x supported on positions}, so it is walked from x, one
    coordinate at a time, adding multiples of the images g E_ij g^{-1}.
    The index of nu is its base-p value read row by row, first entry most
    significant."""
    out = []
    for g in flags:
        n = g.n
        ginv = mat_inv(g.entries, p)
        # (nu flattened, coordinates of x), in itertools.product order
        points = [((0,) * (n * n), ())]
        for i, j in positions:
            # g E_ij g^{-1} is column i of g times row j of g^{-1}
            basis = [g.entries[a][i] * ginv[j][b] for a in range(n) for b in range(n)]
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
def _in_b_sets(n: int, p: int):
    flags = [point.canonical_matrix for point in _flags_cached(n, p)]
    return _ad_images(flags, _b_positions(n), p)


@lru_cache(maxsize=None)
def _in_p_sets(n: int, p: int, blocks: Tuple[int, ...]):
    bl = block_index(blocks)
    positions = [(i, j) for i in range(n) for j in range(n) if bl[i] <= bl[j]]
    return _ad_images(_partial_flags_cached(n, p, blocks), positions, p)


@lru_cache(maxsize=None)
def _position_table(n: int, p: int, blocks: Tuple[int, ...]):
    """positions[full_index][partial_index] over the cached enumerations."""
    full = [point.canonical_matrix for point in _flags_cached(n, p)]
    partial = _partial_flags_cached(n, p, blocks)
    return tuple(
        tuple(relative_position_pair(g1, g2, blocks) for g2 in partial) for g1 in full
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
    blocks = tuple(blocks)
    n = len(w)
    check_bounds(n, p)
    _require_small_for_nu_sweep(n)
    if w != min_rep_perm(w, blocks):
        raise ValueError(f"{w} is not a minimal coset representative for {blocks}")
    expected = p ** (n * (n + 1) // 2 - length(w))
    full_sets = _in_b_sets(n, p)
    partial_sets = _in_p_sets(n, p, blocks)
    positions = _position_table(n, p, blocks)
    histogram: Dict[int, int] = {}
    pairs = 0
    for i1, s1 in enumerate(full_sets):
        for i2, s2 in enumerate(partial_sets):
            if positions[i1][i2] != w:
                continue
            size = len(s1.keys() & s2.keys())
            histogram[size] = histogram.get(size, 0) + 1
            pairs += 1
    passed = pairs > 0 and set(histogram) == {expected}
    return FiberReport(
        passed=passed,
        expected=expected,
        histogram=tuple(sorted(histogram.items())),
        pairs=pairs,
    )


# polynomial helpers for block characteristic polynomials (coefficients mod p,
# lowest degree first)

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _poly_add(a, b, p, sign=1):
    size = max(len(a), len(b))
    a = tuple(a) + (0,) * (size - len(a))
    b = tuple(b) + (0,) * (size - len(b))
    return tuple((x + sign * y) % p for x, y in zip(a, b))


def charpoly(m: Rows, p: int) -> Tuple[int, ...]:
    """det(X·I - m) as a coefficient tuple, constant term first."""
    n = len(m)
    entries = [
        [((-m[i][j]) % p, 1 if i == j else 0) for j in range(n)] for i in range(n)
    ]

    def det(rows_idx, cols_idx):
        if not rows_idx:
            return (1,)
        r = rows_idx[0]
        total = (0,)
        for pos, c in enumerate(cols_idx):
            if entries[r][c] == (0, 0):
                continue
            minor = det(rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1 :])
            term = _poly_mul(entries[r][c], minor, p)
            total = _poly_add(total, term, p, sign=-1 if pos % 2 else 1)
        return total

    out = det(tuple(range(n)), tuple(range(n)))
    out = tuple(out) + (0,) * (n + 1 - len(out))
    assert out[n] == 1 % p
    return out[: n + 1]


def weight_map_check(blocks: Tuple[int, ...], w: Perm, p: int) -> bool:
    """At every F_p point (nu, g1 B, g2 P) with the pair in position w:
    the per-block characteristic polynomials of the Levi part of
    Ad(g2^{-1})nu equal prod_{j in block}(X - d_{w(j)}), where d is the
    diagonal of Ad(g1^{-1})nu."""
    w = check_perm(w)
    blocks = tuple(blocks)
    n = len(w)
    check_bounds(n, p)
    _require_small_for_nu_sweep(n)
    if w != min_rep_perm(w, blocks):
        raise ValueError(f"{w} is not a minimal coset representative for {blocks}")
    full_sets = _in_b_sets(n, p)
    partial_sets = _in_p_sets(n, p, blocks)
    positions = _position_table(n, p, blocks)
    for i1, s1 in enumerate(full_sets):
        for i2, s2 in enumerate(partial_sets):
            if positions[i1][i2] != w:
                continue
            for idx in s1.keys() & s2.keys():
                m1 = s1[idx]
                weights = tuple(m1[k - 1][k - 1] for k in w)
                if _levi_charpolys(s2[idx], blocks, p) != _block_root_polys(weights, blocks, p):
                    return False
    return True


def _block_slices(blocks: Tuple[int, ...]) -> List[Tuple[int, int]]:
    starts = [0] + list(itertools.accumulate(blocks))
    return list(zip(starts, starts[1:]))


# Both caches are keyed by value: every partial flag's Ad(g2^{-1})nu ranges
# over the same p(F_p), so each x there has its Levi part expanded once,
# however many flags and positions w share it.
@lru_cache(maxsize=None)
def _levi_charpolys(m: Rows, blocks: Tuple[int, ...], p: int) -> Tuple[Tuple[int, ...], ...]:
    """The characteristic polynomial of each diagonal block of m."""
    return tuple(
        charpoly(tuple(row[lo:hi] for row in m[lo:hi]), p) for lo, hi in _block_slices(blocks)
    )


@lru_cache(maxsize=None)
def _block_root_polys(
    roots: Tuple[int, ...], blocks: Tuple[int, ...], p: int
) -> Tuple[Tuple[int, ...], ...]:
    """prod_{j in block}(X - roots[j]) for each block, in charpoly layout."""
    out = []
    for lo, hi in _block_slices(blocks):
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
    differ.  Works over F_p (pass an FqMatrix) or exact rationals.

    Sweeps columns left to right, rows bottom-up inside a column,
    conjugating by I + v_kj/(v_jj - v_kk)·E_kj; each step clears (k, j)
    without touching entries already cleared.  Returns (b, v').
    """
    if isinstance(v, FqMatrix):
        if p is not None and p != v.p:
            raise ValueError("p disagrees with the matrix field")
        p = v.p
        rows = [list(r) for r in v.entries]

        def div(a, b):
            return a * pow(b % p, p - 2, p) % p

        def norm(x):
            return x % p

    else:
        if p is not None:
            raise ValueError("pass an FqMatrix for mod-p input")
        rows = [[Fraction(x) for x in row] for row in v]

        def div(a, b):
            return a / b

        def norm(x):
            return x

    n = len(rows)
    if not in_b(rows):
        raise ValueError("input is not upper triangular")
    original = [row[:] for row in rows]
    one = norm(1) if p is not None else Fraction(1)
    zero = norm(0) if p is not None else Fraction(0)
    b = [[one if i == j else zero for j in range(n)] for i in range(n)]
    binv = [row[:] for row in b]
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
    # postconditions: entries across distinct diagonal values vanish and
    # the result really is the conjugate
    for i in range(n):
        for j in range(n):
            if original[i][i] != original[j][j]:
                assert rows[i][j] == zero
    if p is not None:
        product = mat_mul(mat_mul(tuple(map(tuple, binv)), tuple(map(tuple, original)), p),
                          tuple(map(tuple, b)), p)
        assert product == tuple(map(tuple, rows))
        return FqMatrix(p, tuple(map(tuple, b))), FqMatrix(p, tuple(map(tuple, rows)))
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    check = _frac_mul(_frac_mul(binv, original), b)
    assert check == rows
    assert _frac_mul(binv, b) == ident
    return tuple(map(tuple, b)), tuple(map(tuple, rows))


def _frac_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


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
    flags = _flags_cached(n, p)
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
    width = len(_b_positions(n))
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
    for k, (a, b) in enumerate(_b_positions(n)):
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
