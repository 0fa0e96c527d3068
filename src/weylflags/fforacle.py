"""Exhaustive flag-variety checks over small prime fields.

Enumerates flag varieties of GL_n over F_p cell by cell: the Schubert cell
B·dot(w)·B/B is the points u·dot(w), u with its columns permuted by w,
filled once per (w, p) as the product of its rows' choices.  G/B is every
cell, G/P the cells of w in W^P, each mapping isomorphically onto
B·dot(w)·P/P.  A point is its cell and matrix; the inverses, a table per
cell built only for the nu kernels and a nonzero nu's incidence test, are
dot(w)^{-1}·u^{-1}, u^{-1} a product kept as the rows are chosen.  Any
invertible matrix is brought to the point of
its coset gB by one column reduction, which names both the coset and its
cell.  Membership of Ad(g^-1)nu in b or p is one test: the entries below the
block diagonal vanish.  The rest of the package reasons about these
incidences combinatorially.  Everything here is counting; no claim beyond
membership and cardinality is certified.

Each check has one gate, its refusal in _CHECKS, which run_suite and
the check's public function ask after the field check (p prime, past
PRIME_GATE trial divisions refused undivided).  The checks that enumerate
flags are capped at 30,000 flags, |G/B| = [n]_p!, the nu checks then by
NU_SWEEP_GATE; shortest_element by its MASK_PAIR_GATE pairs (w, P),
good_form by GOOD_FORM_GATE entry updates, blowup by BLOWUP_GATE points.
Each cost is multiplied out lazily, so a huge n or p is refused at once.
WEYLFLAGS_FF_MAX_FLAGS raises the flag cap (one warning per process).

The nu checks (fiber dimension, weight map) look at pairs (g1 B, g2 P) in
relative position w.  G acts on such pairs preserving the position, the
fiber size and the weights, and acts transitively on G/B, so they fix
g1 = 1 and multiply each pair count by |G/B| = [n]_p!.  The pairs are then the partial
flags g2 P in the cell of w, and the fiber of g2 is the kernel of the
linear map b -> g/p, nu -> Ad(g2^{-1})nu read below the block diagonal.
The fiber dimension needs only the rank of that map at each g2; the
weight map reads a basis of the kernel off the same echelon form, and walks
its projection onto the Levi blocks and the weights, comparing block
characteristic polynomials (by Hessenberg reduction over F_p); each
distinct image, keyed by its RREF, is walked once.

The shortest-element check compares two masks: the coordinates of b that
Ad(dot(w)^{-1}) sends outside b, and outside p.  Ad(dot(w)^{-1})E_ab is
E_{w^{-1}(a) w^{-1}(b)}, so the masks are index maps.  Over any F_p every
set of coordinates is the support of some nu in b, so the masks decide it.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import warnings
from collections import Counter
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .weyl import Perm, _cap, _cosets, _min_reps_perm, _min_reps_with_length, block_index, block_slices
from .weyl import check_blocks, check_perm, inverse, length, min_rep_perm

# |G/B| = [n]_p!, each cell's points held, its inverses only once read.  Cold `ff-verify
# --suite all` on a 2-vCPU Xeon (CPython 3.11) took 0.4-0.6 s and 33 MB RSS at (4,5),
# 29,016 flags, and 0.2 s and 19 MB at (5,2), 9,765 flags.
DEFAULT_MAX_FLAGS = 30_000
ENV_MAX_FLAGS = "WEYLFLAGS_FF_MAX_FLAGS"
# Trial division makes sqrt(p) divisions: 10^6 at p ~ 10^12 took 0.056 s on the same machine.
PRIME_GATE = 10**6


@lru_cache(maxsize=None)
def _check_prime(p: int) -> None:
    """Refuse p unless trial division finds it prime; past PRIME_GATE divisions, before dividing."""
    if p > 1 and (reason := _gate("primality cost sqrt(p) trial divisions", (math.isqrt(p),), PRIME_GATE)):
        raise ValueError(f"p={p} refused: {reason}")
    if p < 2 or not all(p % d for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, got {p}")


def _check_field(n: int, p: int) -> None:
    """Refuse p not a prime, and n below 1: the refusal every check shares."""
    _check_prime(p)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _gate(cost: str, factors: Iterable[int], cap: int) -> Optional[str]:
    """"cost > cap" once the product of factors, each >= 1, passes cap; None if it never does."""
    product = 1
    for factor in factors:
        product *= factor
        if product > cap:
            return f"{cost} > {cap}"
    return None


def _q_integers(n: int, p: int) -> Iterator[int]:
    """[1]_p, ..., [n]_p, [k]_p = 1 + p + ... + p^(k-1); their product is [n]_p! = |G/B|."""
    return ((p**k - 1) // (p - 1) for k in range(1, n + 1))


def _flag_refusal(n: int, p: int) -> Optional[str]:
    """The gate of every check that enumerates flags: |G/B| = [n]_p! against
    the flag cap.  A raised cap warns here, one location for every caller."""
    max_flags = _cap(ENV_MAX_FLAGS, DEFAULT_MAX_FLAGS)
    if max_flags > DEFAULT_MAX_FLAGS:
        warnings.warn(f"enumeration cap raised via environment to [n]_p!<={max_flags}")
    reason = _gate("flag count [n]_p!", _q_integers(n, p), max_flags)
    return reason and f"{reason}; {ENV_MAX_FLAGS} raises it"


def check_bounds(n: int, p: int) -> None:
    """Refuse an enumeration of G/B over F_p outside the caps."""
    _check_field(n, p)
    if reason := _flag_refusal(n, p):
        raise ValueError(f"n={n}, p={p} outside the enumeration cap: {reason}")


# ---------------------------------------------------------------------------
# exact matrix arithmetic mod p

Rows = Tuple[Tuple[int, ...], ...]


class FqMatrix(NamedTuple("FqMatrix", [("p", int), ("entries", Rows)])):
    """A square matrix over F_p, reduced mod p; _make((p, entries)) skips the checks."""

    __slots__ = ()

    def __new__(cls, p: int, entries: Rows):
        _check_prime(p)
        norm = tuple(tuple(x % p for x in row) for row in entries)
        if any(len(row) != len(norm) for row in norm):
            raise ValueError("matrix must be square")
        return super().__new__(cls, p, norm)

    @property
    def n(self) -> int:
        return len(self.entries)


def _eliminate(rows: Sequence[Sequence[int]], p: int) -> List[Tuple[int, Sequence[int]]]:
    """Row echelon form of rows reduced mod p, taking the columns left to right.

    Zero rows are dropped, on entry and as they arise.  A column's pivot, the
    first remaining row nonzero there, is scaled to 1 and cleared from the
    rows after it.  Returns the (column, row) pivot pairs in column order:
    their number is the rank, and the rows whose pivot lies at or past a
    column span the part of the row space that is zero before it."""
    work, echelon = [row for row in rows if any(row)], []
    for c in range(len(work[0]) if work else 0):
        rest, prow = [], None
        for row in work:
            f = row[c]
            if not f:
                rest.append(row)
            elif prow is None:
                inv = pow(f, p - 2, p)
                prow = row if f == 1 else [x * inv % p for x in row]
            elif any(row := [(x - f * y) % p for x, y in zip(row, prow)]):
                rest.append(row)
        if prow is not None:
            echelon.append((c, prow))
            if not rest:
                break
            work = rest
    return echelon


def rref(rows: Sequence[Sequence[int]], p: int) -> Rows:
    """Canonical reduced row echelon form of the row space (zero rows dropped):
    _eliminate's echelon form, each pivot then cleared from the rows above it."""
    echelon = _eliminate([[x % p for x in row] for row in rows], p)
    out = [row for _, row in echelon]
    for k, (c, prow) in enumerate(echelon):  # row k is still prow: only rows above k have changed
        for i in range(k):
            if f := out[i][c]:
                out[i] = [(x - f * y) % p for x, y in zip(out[i], prow)]
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# flag enumeration

class FlagPoint(NamedTuple):
    """A point of G/P: canonical_matrix is u·dot(cell), cell in W^P, with u
    upper unipotent and zero off the diagonal outside the cell's free
    positions.  Its inverse, read only by the nu kernels and by an incidence
    test of a nonzero nu, sits at the point's index in _cell_inverses."""

    cell: Perm
    canonical_matrix: FqMatrix


def cell_free_positions(w: Perm) -> Tuple[Tuple[int, int], ...]:
    """Free coordinates of the cell of w: inversions of w^{-1}, i.e. the
    positions (i, j), i < j, with w^{-1}(i) > w^{-1}(j); there are
    length(w) of them."""
    wi = inverse(check_perm(w))
    n = len(w)
    out = tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1) if wi[i - 1] > wi[j - 1])
    assert len(out) == length(w)
    return out


def _row_choices(w: Perm, p: int) -> List[List[Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]]]:
    """Per row i of the cell of w, each choice of its coordinates in product
    order: the nonzero ones (j, u[i][j]), and row i of u·dot(w), shared by
    every point that makes that choice."""
    n = len(w)
    # (u·dot(w))[i][j] = u[i][w(j) - 1], entries in range(p): no checks needed; one index gives no tuple
    take = operator.itemgetter(*(k - 1 for k in w)) if n > 1 else tuple
    free = cell_free_positions(w)
    rows = []
    for i in range(n):
        columns = [j - 1 for r, j in free if r == i + 1]
        choices = [dict(zip(columns, coords)) for coords in itertools.product(range(p), repeat=len(columns))]
        rows.append([(tuple((j, c) for j, c in u.items() if c), take([u.get(j, int(i == j)) for j in range(n)]))
                     for u in choices])
    return rows


@lru_cache(maxsize=None)
def _cell_points(w: Perm, p: int) -> Tuple[FlagPoint, ...]:
    """The points u·dot(w) of the cell B·dot(w)·B/B: the product of the rows' choices."""
    rows = [[row for _, row in choices] for choices in _row_choices(w, p)]
    return tuple(FlagPoint(w, FqMatrix._make((p, g))) for g in itertools.product(*rows))


@lru_cache(maxsize=None)
def _cell_inverses(w: Perm, p: int) -> Tuple[Rows, ...]:
    """The inverses dot(w)^{-1}·u^{-1} of _cell_points(w, p), in its order, built
    only for the readers that need them: u^{-1} = (I - A_1)...(I - A_{n-1})
    by columns, A_i row i off the diagonal, each prefix of rows shared."""
    choices = _row_choices(w, p)
    inverses: List[Rows] = []

    def extend(i: int, v_cols: List[List[int]]) -> None:
        for nonzero, _ in choices[i]:
            cols = v_cols[:]
            for j, c in nonzero:  # times (I - A_i): column j loses u[i][j] times column i
                cols[j] = [(x - c * y) % p for x, y in zip(v_cols[j], v_cols[i])]
            if i + 1 < len(w):
                extend(i + 1, cols)
            else:
                rows = tuple(zip(*cols))
                inverses.append(tuple(rows[k - 1] for k in w))

    extend(0, [[int(i == j) for i in range(len(w))] for j in range(len(w))])
    return tuple(inverses)


@lru_cache(maxsize=None)
def _cells(blocks: Tuple[int, ...]) -> Tuple[Perm, ...]:
    """W^P by (length(w), w): each cell B·dot(w)·B/B maps onto B·dot(w)·P/P
    isomorphically, so G/P is the Borel's points in these cells, in order."""
    return tuple(w for _, w in sorted(_min_reps_with_length(blocks)))


def _flags(n: int, p: int, blocks: Tuple[int, ...]) -> Iterator[FlagPoint]:
    """G/P, one point u·dot(w) per coset gP, cell by cell (see _cells)."""
    check_blocks(blocks, n)
    return itertools.chain.from_iterable(_cell_points(w, p) for w in _cells(blocks))


def enumerate_flags(n: int, p: int) -> List[FlagPoint]:
    """Every Borel coset of GL_n(F_p) exactly once, as u·dot(w) cell
    representatives; sorted by (cell length, cell, coordinates)."""
    check_bounds(n, p)
    return list(_flags(n, p, (1,) * n))


def cell_normal_form(g: FqMatrix) -> Tuple[Perm, Rows]:
    """The Bruhat cell w of g and the point u·dot(w) of the coset gB.

    The point depends only on gB, so it is a complete coset key, and every
    enumerated point is its own normal form.  The columns of g are
    taken left to right.  Each is reduced by the earlier reduced columns
    at their pivot rows, then scaled to 1 at its lowest nonzero row, found
    scanning up, which is w(j).  Both steps are right multiplications by B.
    Column j ends zero below w(j) and at w(k) for k < j: column w(j) of u.

    >>> cell_normal_form(FqMatrix(3, ((1, 1), (2, 1))))
    ((2, 1), ((2, 1), (1, 0)))
    >>> cell_normal_form(FqMatrix(3, ((1, 2), (2, 1))))
    Traceback (most recent call last):
        ...
    ValueError: singular matrix
    """
    p = g.p
    cell: List[int] = []
    cols: List[List[int]] = []
    for v in zip(*g.entries):
        for r, col in zip(cell, cols):
            if f := v[r]:
                v = [(x - f * y) % p for x, y in zip(v, col)]
        r = len(v) - 1
        while not v[r]:
            r -= 1
            if r < 0:
                raise ValueError("singular matrix")
        if v[r] != 1:  # every enumerated point has its pivots 1 already
            inv = pow(v[r], p - 2, p)
            v = [x * inv % p for x in v]
        cell.append(r)
        cols.append(v)
    return tuple(r + 1 for r in cell), tuple(zip(*cols))


def enumerate_partial_flags(n: int, p: int, blocks: Tuple[int, ...]) -> List[FqMatrix]:
    """One representative matrix per coset gP: the points of the cells of
    the minimal representatives, in the order of enumerate_flags."""
    check_bounds(n, p)
    return [point.canonical_matrix for point in _flags(n, p, tuple(blocks))]


# ---------------------------------------------------------------------------
# adjoint membership masks

@lru_cache(maxsize=None)
def _zero_positions(blocks: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """The entries (i, j), 0-indexed, that vanish on p for the block
    composition: i's block after j's.  b is blocks (1,)*n."""
    bl = block_index(blocks)
    return tuple((i, j) for i, a in enumerate(bl) for j, b in enumerate(bl) if a > b)


def in_b(m: Rows) -> bool:
    return not any(m[i][j] for i, j in _zero_positions((1,) * len(m)))


# in_b tests against the Borel, in_p against the parabolic of blocks
CONDITIONS = ("in_b", "in_p")
SPACES = ("full_flag", "partial_flag")


class IncidenceReport(NamedTuple):
    count: int
    witnesses: tuple
    by_cell: Tuple[Tuple[Perm, int], ...]


def incidence_count(
    nu: FqMatrix, condition: str, space: str, blocks: Optional[Tuple[int, ...]] = None
) -> IncidenceReport:
    """Count flag (or partial-flag) points g with Ad(g^{-1})nu in the
    requested subalgebra; the witnesses (FlagPoints in both spaces) and a
    per-cell breakdown ride along.  in_b on partial flags is refused: the
    answer would depend on the representative of gP.  Each point forms
    only the columns of nu·g that the tested entries read, from nu's
    nonzero columns, and passes the entries of a column that comes out
    zero, as all do for nu = 0, which reads no inverse; then g^{-1}·(nu·g)
    at the others, each reduced mod p once, up to the first nonzero."""
    n = nu.n
    p = nu.p
    check_bounds(n, p)
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; pick one of {CONDITIONS}")
    if condition == "in_p" and blocks is None:
        raise ValueError("condition in_p needs blocks")
    if blocks is not None:
        check_blocks(blocks, n)
    if space == "partial_flag" and blocks is None:
        raise ValueError("partial_flag space needs blocks")
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}; pick one of {SPACES}")
    if space == "partial_flag" and condition == "in_b":
        raise ValueError("condition in_b needs space full_flag: b is not P-stable, so whether Ad(g^-1)nu "
                         "lies in b depends on the representative g of gP")
    zeros = _zero_positions(tuple(blocks) if condition == "in_p" else (1,) * n)
    tested = [(j, [i for i, c in zeros if c == j]) for j in sorted({j for _, j in zeros})]
    nonzero = [(k, col) for k, col in enumerate(zip(*nu.entries)) if any(col)]
    witnesses = []
    for w in _cells((1,) * n if space == "full_flag" else tuple(blocks)):
        inverses = _cell_inverses(w, p) if nonzero else itertools.repeat(None)
        for point, inverse in zip(_cell_points(w, p), inverses):
            g = point.canonical_matrix.entries
            for j, rows in tested:
                col = None
                for k, nu_col in nonzero:
                    if c := g[k][j]:
                        col = [c * x for x in nu_col] if col is None else [y + c * x for y, x in zip(col, nu_col)]
                if col and any(sum(map(operator.mul, inverse[i], col)) % p for i in rows):
                    break
            else:
                witnesses.append(point)
    by_cell = Counter(point.cell for point in witnesses)  # in the points' order, by (length, cell)
    return IncidenceReport(count=len(witnesses), witnesses=tuple(witnesses), by_cell=tuple(by_cell.items()))


# ---------------------------------------------------------------------------
# pairwise incidence: fibers and the weight map

def _nu_kernels(w: Perm, blocks: Tuple[int, ...], p: int, basis: bool):
    """For each partial flag g2 P in the cell of w, the fiber {nu in b :
    Ad(g2^{-1})nu in p}, the kernel of b -> g/p, nu -> Ad(g2^{-1})nu read
    below the block diagonal: its dimension, or with basis a basis, each
    vector Ad(g2^{-1})nu flattened row by row, then the diagonal of nu.
    The inputs are checked at once; the caller has admitted (n, p).

    Ad(g2^{-1})E_ac is column a of g2^{-1} times row c of g2.  Row (a, c)
    of the elimination is that vector read below the block diagonal, of
    rank dim b - dimension; for a basis the whole vector follows, and the
    rows whose pivot falls past the first part are zero there and span it."""
    n = len(w)
    if w != min_rep_perm(w, blocks):
        raise ValueError(f"{w} is not a minimal coset representative for {blocks}")
    zeros = _zero_positions(blocks)
    read = zeros + (tuple(itertools.product(range(n), repeat=2)) if basis else ())

    def kernel(g: Rows, ginv: Rows):
        vectors = [
            [ginv[i][a] * g[c][j] % p for i, j in read] + ([int(a == c == j) for j in range(n)] if basis else [])
            for a, c in itertools.combinations_with_replacement(range(n), 2)
        ]
        echelon = _eliminate(vectors, p)
        if not basis:
            return len(vectors) - len(echelon)
        return [row[len(zeros):] for column, row in echelon if column >= len(zeros)]

    return (kernel(point.canonical_matrix.entries, inverse) for point, inverse in zip(_cell_points(w, p), _cell_inverses(w, p)))


class FiberReport(NamedTuple):
    passed: bool
    expected: int
    histogram: Tuple[Tuple[int, int], ...]  # (fiber size, number of pairs)
    pairs: int


def fiber_dimension_check(w: Perm, blocks: Tuple[int, ...], p: int) -> FiberReport:
    """Over every pair (g1 B, g2 P) in relative position w, the incidence
    fiber {nu : Ad(g1^{-1})nu in b, Ad(g2^{-1})nu in p} must have exactly
    p^(dim b - lg_P(w)) points, dim b = n(n+1)/2.

    G moves the pairs in position w onto each other with their fibers,
    and acts transitively on G/B, so the histogram is [n]_p! times that
    of the pairs with g1 = 1.  Those are the p^l(w) partial flags g2 P in
    the cell of w, and the fiber of g2 is the kernel of b -> g/p, with
    p^(dim b - rank) points (see _nu_kernels)."""
    w = check_perm(w)
    _admit("fiber_dimension", len(w), p)
    return _fiber_report(w, tuple(blocks), p)


def _fiber_report(w: Perm, blocks: Tuple[int, ...], p: int) -> FiberReport:  # fiber_dimension past its gate
    dimensions = Counter(_nu_kernels(w, blocks, p, False))
    n = len(w)
    expected = p ** (n * (n + 1) // 2 - length(w))
    histogram = {p**dimension: count * q_factorial(n, p) for dimension, count in dimensions.items()}
    count = sum(histogram.values())
    passed = count > 0 and set(histogram) == {expected}
    return FiberReport(passed=passed, expected=expected, histogram=tuple(sorted(histogram.items())), pairs=count)


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

    m is brought to upper Hessenberg form h by similarity over F_p: in
    each column c, a row below c + 1 with a nonzero entry there is swapped
    (row and column) into c + 1, and its multiples clear the entries
    below it.  The leading blocks are then expanded column by column:
    P_{k+1} = (X - h_kk) P_k - sum_{i<k} h_ik h_{i+1,i}...h_{k,k-1} P_i.
    Only field operations, with no division by k, so any p works."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    h = [[x % p for x in row] for row in m]
    for c in range(n - 2):
        r = next((r for r in range(c + 1, n) if h[r][c]), None)
        if r is None:
            continue
        h[r], h[c + 1] = h[c + 1], h[r]
        for row in h:
            row[r], row[c + 1] = row[c + 1], row[r]
        inv = pow(h[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            if f := h[r][c] * inv % p:  # row r -= f·row c+1, then column c+1 += f·column r
                h[r] = [(x - f * y) % p for x, y in zip(h[r], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[r]) % p
    polys = [[1]]
    for k in range(n):
        poly, beta = [0] + polys[k], 1
        for i in range(k, -1, -1):  # beta = h_{i+1,i}...h_{k,k-1}, empty at i = k
            if f := h[i][k] * beta % p:
                for d, x in enumerate(polys[i]):
                    poly[d] -= f * x
            beta = beta * h[i][i - 1] % p
        polys.append([x % p for x in poly])
    return tuple(polys[n])


def weight_map_check(blocks: Tuple[int, ...], w: Perm, p: int) -> bool:
    """At every F_p point (nu, g1 B, g2 P) with the pair in position w:
    the per-block characteristic polynomials of the Levi part of
    Ad(g2^{-1})nu equal prod_{j in block}(X - d_{w(j)}), where d is the
    diagonal of Ad(g1^{-1})nu.

    Moving (nu, g1 B, g2 P) by G changes neither side, so g1 = 1 and d is
    the diagonal of nu.  For each partial flag g2 P in the cell of w, the
    nu are the points of the kernel of b -> g/p (see _nu_kernels).  Both
    sides read only the Levi-block entries of Ad(g2^{-1})nu and the weights
    d_{w(j)}, so the check walks the kernel's image under that projection,
    from the RREF of the projected basis.  B fixes g1 B and moves the cell
    onto dot(w) P, but fixing g2 = dot(w) too would make the check vacuous:
    w in W^P increases on each block, so the Levi blocks of
    Ad(dot(w)^{-1})nu = (nu_{w(i) w(j)}) are upper triangular with
    diagonal d_{w(j)}, and the two sides agree by construction.  So every
    flag computes its own kernel and its image's RREF, and the verdict is
    kept per image: an image already walked is not walked again."""
    w = check_perm(w)
    _admit("weight_map", len(w), p)  # before the O(n^2) coordinate list
    return _weights_match(tuple(blocks), w, p)


def _weights_match(blocks: Tuple[int, ...], w: Perm, p: int) -> bool:  # weight_map past its gate
    kernels = _nu_kernels(w, blocks, p, True)
    n = len(w)
    # the Levi-block entries of Ad(g2^{-1})nu, block by block and row by row, then the weights
    levi = [i * n + j for lo, hi in block_slices(blocks) for i in range(lo, hi) for j in range(lo, hi)]
    coordinates = levi + [n * n + k - 1 for k in w]
    return all(_image_agrees(rref([[v[c] for c in coordinates] for v in kernel], p), blocks, p) for kernel in kernels)


@lru_cache(maxsize=None)
def _image_agrees(basis: Rows, blocks: Tuple[int, ...], p: int) -> bool:
    """Both sides at every point of the span of basis, an RREF in the
    coordinates of _weights_match; the verdict is a function of the image."""
    cut = sum(size * size for size in blocks)
    zero = (0,) * (cut + sum(blocks))
    # each point once, one held at a time: the last vector's multiples are added to each
    # head sum of the others' in turn; zero keeps the width of an empty basis
    *rest, last = [[tuple(c * y % p for y in vector) for c in range(p)] for vector in basis] or [[zero]]
    for parts in itertools.product(*rest):
        head = list(map(sum, zip(zero, *parts)))
        for tail in last:
            point = tuple(map(p.__rmod__, map(operator.add, head, tail)))
            if _levi_charpolys(point[:cut], blocks, p) != _block_root_polys(point[cut:], blocks, p):
                return False
    return True


# Both caches are keyed by value: every partial flag's projected kernel
# lies in the same Levi algebra and weight space over F_p, so each Levi
# part is expanded once, however many flags and positions w share it.
@lru_cache(maxsize=None)
def _levi_charpolys(levi: Tuple[int, ...], blocks: Tuple[int, ...], p: int) -> Tuple[Tuple[int, ...], ...]:
    """Each diagonal block's characteristic polynomial; levi holds the blocks' entries row by row."""
    entries = iter(levi)
    return tuple(charpoly(tuple(tuple(itertools.islice(entries, size)) for _ in range(size)), p) for size in blocks)


@lru_cache(maxsize=None)
def _block_root_polys(roots: Tuple[int, ...], blocks: Tuple[int, ...], p: int) -> Tuple[Tuple[int, ...], ...]:
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
    computation; the solution-set case split is checked as well.  p = 2
    is refused: the equation carries a coefficient 2."""
    _admit("blowup", 2, p)
    sign_mismatches = 0
    for x in range(p):
        u, uinv = ((1, 0), (x, 1)), ((1, 0), ((-x) % p, 1))
        for t, y, c in itertools.product(range(p), repeat=3):
            b = ((c + t) % p, y), (0, (c - t) % p)
            # the one entry read, the lower-left of u^{-1}·b·u: row 2 of u^{-1}, times b, times column 1 of u
            lower_left = sum(r * (b0 * u[0][0] + b1 * u[1][0]) for r, (b0, b1) in zip(uinv[1], b)) % p
            q = (2 * x * t + x * x * y) % p
            sign_mismatches += lower_left != (-q) % p
            if (lower_left == 0) != (q == 0):
                return False
    if sign_mismatches:
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


def good_form_conjugate(v):
    """Conjugate an upper-triangular v by an upper unipotent b so that
    v' = b^{-1} v b has zero entries wherever the two diagonal values
    differ.  Works over F_p (pass an FqMatrix) or exact rationals, where an
    entry is an int if every input entry is an int and it is whole.

    Sweeps columns left to right, rows bottom-up inside a column,
    conjugating by I + v_kj/(v_jj - v_kk)·E_kj; each step clears (k, j)
    without touching entries already cleared.  Returns (b, v'), checked
    as v·b = b·v' with b unit upper triangular; a failed check raises
    ArithmeticError.
    """
    if isinstance(v, FqMatrix):
        b, rows, _ = _checked_good_form(v.entries, v.p)
        return FqMatrix(v.p, b), FqMatrix(v.p, rows)
    from fractions import Fraction  # imported here: the suite rows read _good_form's numerators
    ratios = [[x.as_integer_ratio() for x in row] for row in v]
    scale = math.lcm(*(d for row in ratios for _, d in row))  # num = scale·v gives b = B/d, v' = V/(d·scale)
    b, rows, den = _checked_good_form([[a * (scale // d) for a, d in row] for row in ratios], 0)
    ints = all(type(x) is int for row in v for x in row)
    exact = lambda m, d: tuple(tuple(x // d if ints and not x % d else Fraction(x, d) for x in row) for row in m)
    return exact(b, den), exact(rows, den * scale)


def _checked_good_form(original: Sequence[Sequence[int]], p: int) -> Tuple[Rows, Rows, int]:
    """_good_form's (B, V, d), refused with an ArithmeticError if it breaks
    a postcondition."""
    b, rows, den, broken = _good_form(original, p)
    if broken:
        raise ArithmeticError(f"good form breaks {broken} of its postconditions")
    return b, rows, den


def _good_form(original: Sequence[Sequence[int]], p: int) -> Tuple[Rows, Rows, int, int]:
    """good_form_conjugate's sweep on integer v over F_p (p prime, v
    reduced) or Q (p = 0): (B, V, d, broken) with b = B/d and v' = V/d, and
    broken the number of postconditions below that fail.  Over Q the
    numerators are scaled just enough that every step divides exactly."""
    n = len(original)
    if any(len(row) != n for row in original):
        raise ValueError("matrix must be square")
    if not in_b(original):
        raise ValueError("input is not upper triangular")
    m, den = [list(row) for row in original] + [[int(i == j) for j in range(n)] for i in range(n)], 1
    for j in range(1, n):
        for k in range(j - 1, -1, -1):
            a, q = m[k][j], (m[j][j] - m[k][k]) % p if p else m[j][j] - m[k][k]
            if not (a and q):  # equal diagonal values, or (k, j) already zero
                continue
            if p:
                a, q = a * pow(q, p - 2, p) % p, 1
            elif (s := abs(q) // math.gcd(q, a * math.gcd(*(row[k] for row in m), *m[j][j:]))) > 1:
                m, den = [[x * s for x in row] for row in m], den * s
            # v <- (I - c E_kj) v (I + c E_kj), b <- b (I + c E_kj); E_kj v E_kj = 0 for upper v
            for row in m:
                row[j] = (row[j] + a * row[k]) % p if p else row[j] + a * row[k] // q
            m[k][j:] = [(x - a * y) % p if p else x - a * y // q for x, y in zip(m[k][j:], m[j][j:])]
    rows, b = tuple(map(tuple, m[:n])), tuple(map(tuple, m[n:]))

    # postconditions, counted where they fail: entries across distinct
    # diagonal values vanish, and the result really is the conjugate.  All
    # three factors are upper triangular, so v·b = b·v' holds when
    # d·(v·B) = B·V holds on the upper triangle, where entry (i, j) sums
    # over i <= t <= j only.
    broken = sum(1 for i in range(n) for j in range(n) if rows[i][j] and original[i][i] != original[j][j])
    broken += not (in_b(b) and all(b[i][i] == den for i in range(n)) and in_b(rows))
    for i in range(n):
        for j in range(i, n):
            span = range(i, j + 1)
            gap = den * sum(original[i][t] * b[t][j] for t in span) - sum(b[i][t] * rows[t][j] for t in span)
            broken += bool(gap % p if p else gap)
    return b, rows, den, broken


# ---------------------------------------------------------------------------
# whole-structure identities and the check suite

def q_factorial(n: int, p: int) -> int:
    return math.prod(_q_integers(n, p))


def gl_order(n: int, p: int) -> int:
    return math.prod(p**n - p**i for i in range(n))


def borel_order(n: int, p: int) -> int:
    return (p - 1) ** n * p ** (n * (n - 1) // 2)


def point_count_identity(n: int, p: int) -> Dict[str, object]:
    """Three routes to |G/B| must agree (cell sum, q-factorial, group
    order quotient); points must be pairwise distinct cosets and each
    must classify back into its own cell, both read from one normal form
    per point, one point at a time."""
    _admit("point_count", n, p)
    by_cells = sum(p ** length(w) for w in itertools.permutations(range(1, n + 1)))
    qf = q_factorial(n, p)
    quotient = gl_order(n, p) // borel_order(n, p)
    enumerated, keys, roundtrip = 0, set(), True
    for point in _flags(n, p, (1,) * n):
        cell, rows = cell_normal_form(g := point.canonical_matrix)
        keys.add(g.entries if rows == g.entries else rows)  # a point that is its own form is kept once
        roundtrip &= cell == point.cell
        enumerated += 1
    passed = enumerated == by_cells == qf == quotient == len(keys) and roundtrip
    return {"enumerated": enumerated, "cell_sum": by_cells, "q_factorial": qf, "group_quotient": quotient,
            "distinct_cosets": len(keys), "cells_roundtrip": roundtrip, "pass": passed}


def _ad_basis_images(w: Perm) -> FrozenSet[Tuple[int, int]]:
    """The entries, 0-indexed, that Ad(dot(w)^{-1}) sends the basis
    matrices E_ab (a <= b) of b to: dot(w)^{-1} E_ab dot(w) is
    E_{w^{-1}(a) w^{-1}(b)}."""
    return frozenset((x - 1, y - 1) for x, y in itertools.combinations_with_replacement(inverse(w), 2))


def shortest_element_fq_check(w: Perm, blocks: Tuple[int, ...], p: int) -> bool:
    """Minimal coset representatives are exactly the w for which
    Ad(dot(w)^{-1}) maps b-membership onto p-membership over F_p: for
    w in W^P the two memberships agree for every nu in b; for w not in
    W^P a counterexample nu (in p but not in b) must exist.

    Ad is linear and each basis matrix of b goes to a single entry, so
    Ad(dot(w)^{-1})nu lies in b (or p) exactly when the support of nu
    misses the entries sent outside b (or p).  Every set of coordinates
    is the support of some nu in b(F_p), so two masks decide: none may be
    outside p but not b, and they are equal exactly when w is in W^P."""
    w = check_perm(w)
    _admit("shortest_element", len(w), p)
    return _masks_decide(w, tuple(blocks))


def _masks_decide(w: Perm, blocks: Tuple[int, ...]) -> bool:  # shortest_element past its gate
    is_rep = w == min_rep_perm(w, blocks)
    images = _ad_basis_images(w)
    off_b = images.intersection(_zero_positions((1,) * len(w)))
    off_p = images.intersection(_zero_positions(blocks))
    if off_p - off_b:
        return False
    return off_b == off_p if is_rep else off_b != off_p


def covering_degree_check(blocks: Tuple[int, ...], p: int) -> Dict[str, object]:
    """A split regular semisimple nu = diag(0..n-1) must lie in exactly
    |W/W_P| partial-flag Lie algebras."""
    blocks = tuple(blocks)
    _admit("covering_degree", sum(blocks), p)  # p >= n, for n distinct diagonal values
    return _covering_degree(blocks, p)


def _covering_degree(blocks: Tuple[int, ...], p: int) -> Dict[str, object]:  # covering_degree past its gate
    n = sum(blocks)
    nu = FqMatrix(p, tuple(tuple(i if i == j else 0 for j in range(n)) for i in range(n)))
    report = incidence_count(nu, "in_p", "partial_flag", blocks=blocks)
    expected = _cosets(blocks)
    return {"expected": expected, "observed": report.count, "pass": report.count == expected}


def _compositions(n: int) -> List[Tuple[int, ...]]:
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in _compositions(n - first)]


# The nu checks are refused when their kernel work over every composition exceeds this gate.  A unit, flags
# enumerated, took 2.5-9 us in fiber_dimension and 2.7-21 us in weight_map (2-vCPU Xeon, CPython 3.11).
NU_SWEEP_GATE = 10_000
# shortest_element compares two masks per pair (w, P), n!*2^(n-1) pairs: its
# rows took 0.34-0.35 s at n = 6 and 4.4-4.6 s at n = 7 (322,560 pairs),
# in-process on the same machine; n = 8 has 16 times the pairs.
MASK_PAIR_GATE = 322_560
# good_form conjugates 60 random upper triangular matrices of size at most n,
# about n^3 entry updates each: its rows took 0.04-0.07 s at n = 16, 0.09 s
# at n = 24 and 0.16-0.17 s at n = 32, in-process on the same machine.
GOOD_FORM_GATE = 60 * 32**3
# blowup walks p^4 points (x, t, y, c), about 1.0 us each: it took 0.27 s at
# p = 23 and 1.9 s at p = 37 in-process on the same machine; p = 41 is refused.
BLOWUP_GATE = 2_500_000


def _mask_pair_refusal(n: int, p: int) -> Optional[str]:
    pairs = itertools.chain(range(1, n + 1), itertools.repeat(2, n - 1))
    return _gate("mask pair cost n!*2^(n-1)", pairs, MASK_PAIR_GATE)


def _fiber_cost(n: int, p: int) -> int:
    """One elimination of dim b rows per partial flag in a minimal cell:
    dim b times the sum over P of |G/P|."""
    q_binomial = lambda k, j: q_factorial(k, p) // (q_factorial(j, p) * q_factorial(k - j, p))
    return n * (n + 1) // 2 * sum(_cosets(blocks, q_binomial) for blocks in _compositions(n))


def _weight_cost(n: int, p: int) -> int:
    """The kernel points, p^dim b for each (P, w in W^P): a bound on the points walked."""
    return p ** (n * (n + 1) // 2) * sum(_cosets(blocks) for blocks in _compositions(n))


def _over_gate(cost: int) -> Optional[str]:
    return f"nu sweep cost {cost} > {NU_SWEEP_GATE}" if cost > NU_SWEEP_GATE else None


def _admit(check: str, n: int, p: int) -> None:
    """Raise unless the field passes and the check's own refusal admits (n, p)."""
    _check_field(n, p)
    if reason := _CHECKS[check][0](n, p):
        raise ValueError(f"{check} refused at n={n}, p={p}: {reason}")


# Each rows function yields (params beyond n and p, expected, observed,
# pass).  run_suite has decided each check by its refusal before its rows
# run, so one that runs a check per row calls it past its gate.  They look
# what they call up as module globals when they run, so wrappers installed
# on those names after import see the calls.

def _point_count_rows(n: int, p: int):
    result = point_count_identity(n, p)
    yield {}, result["q_factorial"], result["enumerated"], bool(result["pass"])


def _incidence_zero_rows(n: int, p: int):
    nu = FqMatrix(p, tuple(tuple(0 for _ in range(n)) for _ in range(n)))
    report = incidence_count(nu, "in_b", "full_flag")
    expected = q_factorial(n, p)
    yield {"condition": "in_b"}, expected, report.count, report.count == expected


def _shortest_element_rows(n: int, p: int):
    perms = list(itertools.permutations(range(1, n + 1)))
    ok = all([_masks_decide(w, blocks) for blocks in _compositions(n) for w in perms])
    yield {"sweep": "all (w, blocks)"}, True, ok, ok


def _covering_degree_rows(n: int, p: int):
    for blocks in _compositions(n):
        result = _covering_degree(blocks, p)
        yield {"blocks": list(blocks)}, result["expected"], result["observed"], bool(result["pass"])


def _fiber_dimension_rows(n: int, p: int):
    for blocks in _compositions(n):
        for w in _min_reps_perm(blocks):
            report = _fiber_report(w, blocks, p)
            params = {"blocks": list(blocks), "w": list(w)}
            yield params, report.expected, dict(report.histogram), report.passed


def _weight_map_rows(n: int, p: int):
    for blocks in _compositions(n):
        for w in _min_reps_perm(blocks):
            ok = _weights_match(blocks, w, p)
            yield {"blocks": list(blocks), "w": list(w)}, True, ok, ok


def _blowup_rows(n: int, p: int):
    ok = blowup_equation_check(p)
    yield {}, True, ok, ok


def _good_form_rows(n: int, p: int):
    rng = random.Random(20240811)
    broken = 0
    trials = 60
    for _ in range(trials):
        size = rng.randint(1, n)
        diag = [rng.randint(0, 2) for _ in range(size)]
        rows_q = [[diag[i] if i == j else rng.randint(-4, 4) if j > i else 0 for j in range(size)] for i in range(size)]
        broken += _good_form(rows_q, 0)[3]
        entries = tuple(tuple(rng.randrange(p) if j >= i else 0 for j in range(size)) for i in range(size))
        broken += _good_form(entries, p)[3]
    ok = not broken
    yield {"trials": trials}, True, ok, ok


# name -> (refusal: (n, p) -> reason or None, the params of (n, p) its
# rows carry, rows function); the order is the order of --suite all.  The
# refusal is the check's one gate after the field check, for run_suite and
# the public check alike; the nu costs sum over 2^(n-1) compositions, so the
# flag cap goes first.
_CHECKS = {
    "point_count": (_flag_refusal, ("n", "p"), _point_count_rows),
    "incidence_zero": (_flag_refusal, ("n", "p"), _incidence_zero_rows),
    "shortest_element": (_mask_pair_refusal, ("n", "p"), _shortest_element_rows),
    "covering_degree": (
        lambda n, p: "needs p >= n" if p < n else _flag_refusal(n, p), ("n", "p"), _covering_degree_rows
    ),
    "fiber_dimension": (
        lambda n, p: _flag_refusal(n, p) or _over_gate(_fiber_cost(n, p)), ("n", "p"), _fiber_dimension_rows
    ),
    "weight_map": (lambda n, p: _flag_refusal(n, p) or _over_gate(_weight_cost(n, p)), ("n", "p"), _weight_map_rows),
    "blowup": (lambda n, p: "needs p != 2" if p == 2 else _gate("point cost p^4", [p] * 4, BLOWUP_GATE), ("p",), _blowup_rows),
    "good_form": (
        lambda n, p: _gate("entry update cost 60*n^3", (60, n, n, n), GOOD_FORM_GATE), ("n", "p"), _good_form_rows
    ),
}

SUITE_CHECKS = tuple(_CHECKS)


def run_suite(n: int, p: int, checks: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    """Run the named checks (default: every check runnable at (n, p)) and
    return one report row per (check, params) with expected/observed/pass.

    When no explicit list is given, checks whose refusal turns (n, p) down
    are skipped with a note naming the reason (a cost and its cap, or a
    precondition); explicitly requested checks raise instead.  An explicit
    empty list raises too, and so does a selection of which no check runs.
    """
    _check_field(n, p)
    explicit = checks is not None
    selected = list(checks) if explicit else list(SUITE_CHECKS)
    if not selected:
        raise ValueError(f"no checks selected; pick from {SUITE_CHECKS}")
    for k, name in enumerate(selected):
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; pick from {SUITE_CHECKS}")
        if name in selected[:k]:
            raise ValueError(f"check {name!r} selected twice")
    for name in selected if explicit else ():  # a named check that cannot run is an error
        _admit(name, n, p)
    reasons = [_CHECKS[name][0](n, p) for name in selected]
    if None not in reasons:
        listed = "; ".join(f"{name} ({reason})" for name, reason in zip(selected, reasons))
        raise ValueError(f"no check runs at n={n}, p={p}: {listed}")
    rows: List[Dict[str, object]] = []
    for name, reason in zip(selected, reasons):
        _, keys, check_rows = _CHECKS[name]
        base = {key: value for key, value in (("n", n), ("p", p)) if key in keys}
        if reason is not None:
            rows.append(
                {"check": name, "params": base, "expected": None, "observed": f"skipped: {reason}", "pass": True, "skipped": True}
            )
            continue
        for extra, expected, observed, ok in check_rows(n, p):
            rows.append({"check": name, "params": {**base, **extra}, "expected": expected, "observed": observed, "pass": ok})
    return rows
