"""Brute-force reference implementations used only by the tests.

Everything in here is deliberately dumb and slow: BFS over Cayley graphs,
subword products, exhaustive coset enumeration, raw counting formulas.
The library under test must agree with these on small ranks.  Nothing in
src/ may import this module.
"""

from __future__ import annotations

import inspect
import itertools
from fractions import Fraction
from functools import lru_cache

from weylflags import companion, cosets, fforacle, roots, steinberg, weyl


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def compose(u, v):
    # (u o v)(i) = u(v(i))
    return tuple(u[v[i] - 1] for i in range(len(u)))


def inverse(w):
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        out[wi - 1] = i
    return tuple(out)


def apply_simple_right(w, i):
    # w * s_i: swap the entries at positions i, i+1 (1-indexed)
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def inversion_count(w):
    n = len(w)
    return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])


@lru_cache(maxsize=None)
def bfs_words(n):
    """BFS over the right Cayley graph on s_1..s_{n-1}.

    Returns {perm: reduced word}, the word being a tuple of simple indices
    whose left-to-right product (starting from the identity) is the perm.
    Graph distance from the identity is an independent length oracle.
    """
    start = tuple(range(1, n + 1))
    words = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, n):
                u = apply_simple_right(w, i)
                if u not in words:
                    words[u] = words[w] + (i,)
                    nxt.append(u)
        frontier = nxt
    assert len(words) == len(all_perms(n))
    return words


def bfs_length(w):
    return len(bfs_words(len(w))[w])


def product_of_word(word, n):
    w = tuple(range(1, n + 1))
    for i in word:
        w = apply_simple_right(w, i)
    return w


@lru_cache(maxsize=None)
def subword_products(v):
    """All products of subwords of one fixed reduced word of v.

    By the subword property of the strong Bruhat order this set is exactly
    the lower ideal {u : u <= v}.
    """
    n = len(v)
    word = bfs_words(n)[v]
    reach = {tuple(range(1, n + 1))}
    for i in word:
        reach |= {apply_simple_right(u, i) for u in reach}
    return frozenset(reach)


def bruhat_leq_subword(u, v):
    return u in subword_products(v)


def compositions(n):
    """All compositions of n as tuples of positive parts."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out


def block_of(blocks):
    """Map position (1-indexed) -> block index (0-indexed)."""
    out = {}
    pos = 1
    for b, size in enumerate(blocks):
        for _ in range(size):
            out[pos] = b
            pos += 1
    return out


def wp_elements(blocks):
    """All elements of W_P as full permutations (block-diagonal shuffles)."""
    per_block = []
    start = 1
    for size in blocks:
        per_block.append(list(itertools.permutations(range(start, start + size))))
        start += size
    return [tuple(x for blk in combo for x in blk) for combo in itertools.product(*per_block)]


def min_coset_rep_brute(w, blocks):
    """Length-minimal element of w·W_P, with a uniqueness assertion."""
    coset = [compose(w, z) for z in wp_elements(blocks)]
    lengths = sorted(inversion_count(u) for u in coset)
    if len(lengths) > 1:
        assert lengths[0] < lengths[1], (w, blocks)
    return min(coset, key=inversion_count)


def min_reps_brute(blocks):
    """W^P by definition, sorted by (length, one-line notation): the w with
    l(w s_i) > l(w) for every simple s_i inside a block."""
    n = sum(blocks)
    bl = block_of(blocks)
    reps = [
        w for w in all_perms(n)
        if all(
            inversion_count(apply_simple_right(w, i)) > inversion_count(w)
            for i in range(1, n)
            if bl[i] == bl[i + 1]
        )
    ]
    return sorted(reps, key=lambda w: (inversion_count(w), w))


def double_coset(qblocks, w, pblocks):
    return {compose(a, compose(w, b)) for a in wp_elements(qblocks) for b in wp_elements(pblocks)}


def double_coset_minima(qblocks, pblocks):
    """perm -> the minimal-length element of its double coset W_Q w W_P.

    Each double coset is materialized whole, as the closure of one member
    under left multiplication by the simple reflections of Q and right
    multiplication by those of P, and its minimum is asserted unique.
    """
    n = sum(pblocks)
    left = [i for i in range(1, n) if block_of(qblocks)[i] == block_of(qblocks)[i + 1]]
    right = [i for i in range(1, n) if block_of(pblocks)[i] == block_of(pblocks)[i + 1]]
    out = {}
    for w in all_perms(n):
        if w in out:
            continue
        coset = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for u in frontier:
                moves = [apply_simple_right(u, i) for i in right]
                moves += [inverse(apply_simple_right(inverse(u), i)) for i in left]
                for v in moves:
                    if v not in coset:
                        coset.add(v)
                        nxt.append(v)
            frontier = nxt
        lengths = sorted(inversion_count(u) for u in coset)
        assert len(lengths) == 1 or lengths[0] < lengths[1], (w, qblocks, pblocks)
        best = min(coset, key=inversion_count)
        out.update(dict.fromkeys(coset, best))
    return out


def levi_positive_roots(blocks):
    """R_P^+ as (i, j) pairs, i < j in the same block."""
    bl = block_of(blocks)
    n = sum(blocks)
    return {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if bl[i] == bl[j]}


def levi_plus(spec):
    """R_P^+ of a spec as Roots, label by label."""
    return frozenset(roots.Root(tau, i, j) for tau, blocks in spec.items() for i, j in levi_positive_roots(blocks))


def levi_roots(spec):
    """R_P of a spec as Roots: every ordered pair i != j in one block."""
    out = set()
    for tau, blocks in spec.items():
        bl = block_of(blocks)
        out.update(roots.Root(tau, i, j) for i, j in itertools.permutations(bl, 2) if bl[i] == bl[j])
    return frozenset(out)


def defect_roots(w, pspec, qspec):
    """w(R_P) n R^+ n R_Q on frozensets of Roots, the roots of
    u n Ad(w)m_P outside n_Q (n_Q = R^+ - R_Q); the set whose size
    steinberg.z_dimension_defect counts on block indices."""
    r_q = levi_roots(qspec)
    translated = (roots.act_root(w, a) for a in levi_roots(pspec))
    return frozenset(a for a in translated if a.positive and a in r_q)


def length_split_brute(sigma, blocks):
    """(n_I, n^I): the inversions m < k of sigma, sigma(m) > sigma(k),
    counted inside one block of I and across two blocks."""
    bl = block_of(blocks)
    within = across = 0
    n = len(sigma)
    for m in range(n):
        for k in range(m + 1, n):
            if sigma[m] > sigma[k]:
                if bl[m + 1] == bl[k + 1]:
                    within += 1
                else:
                    across += 1
    return within, across


def negative_pairing_roots(h):
    """{(i, j) : i != j, h_i - h_j < 0} over all roots of one factor."""
    n = len(h)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and h[i - 1] - h[j - 1] < 0
    }


def gl_order(n, p):
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


def borel_order(n, p):
    return (p - 1) ** n * p ** (n * (n - 1) // 2)


def parabolic_order(blocks, p):
    n = sum(blocks)
    bl = block_of(blocks)
    radical_dim = sum(
        1 for i in range(1, n + 1) for j in range(i + 1, n + 1) if bl[i] != bl[j]
    )
    out = p**radical_dim
    for size in blocks:
        out *= gl_order(size, p)
    return out


def q_factorial(n, p):
    out = 1
    for k in range(1, n + 1):
        out *= sum(p**i for i in range(k))
    return out


def _mat_mul_mod(a, b, p):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)) for i in range(n))


def _perm_matrix(w):
    # column j carries e_{w(j)}
    n = len(w)
    return [[1 if w[j] == i + 1 else 0 for j in range(n)] for i in range(n)]


def in_b_brute(m):
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i))


def in_p_brute(blocks):
    bl = block_of(blocks)
    n = sum(blocks)
    return lambda m: all(
        m[i][j] == 0 for i in range(n) for j in range(n) if bl[i + 1] > bl[j + 1]
    )


def shortest_element_fq_brute(w, blocks, p, min_rep=min_coset_rep_brute):
    """Per-point F_p sweep of the shortest-element lemma: for every nu in
    b(F_p), compute Ad(dot(w)^{-1})nu by two matrix products and test
    b- and p-membership entry by entry.  For w == min_rep(w, blocks) the
    memberships must agree on every nu; otherwise some nu must land in p
    but not in b.  min_rep is a parameter so tests can feed it a wrong
    answer and see the verdict flip."""
    n = len(w)
    in_p = in_p_brute(blocks)
    pm = _perm_matrix(w)
    pmi = _perm_matrix(inverse(w))
    is_rep = tuple(w) == tuple(min_rep(w, blocks))
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    for values in itertools.product(range(p), repeat=len(positions)):
        nu = [[0] * n for _ in range(n)]
        for (i, j), value in zip(positions, values):
            nu[i][j] = value
        m = _mat_mul_mod(pmi, _mat_mul_mod(nu, pm, p), p)
        inb = in_b_brute(m)
        inp = in_p(m)
        if inb and not inp:
            return False
        if is_rep and inp != inb:
            return False
        if not is_rep and inp and not inb:
            return True
    return is_rep


def _det_mod(m, p):
    """Leibniz expansion over all permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** inversion_count(perm)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total % p


def _inv_mod(m, p):
    """Inverse by the adjugate: entry (i, j) is (-1)^(i+j) times the minor
    without row j and column i, over det."""
    n = len(m)
    det = _det_mod(m, p)
    assert det, m
    dinv = pow(det, p - 2, p)

    def minor(r, c):
        return [[m[i][j] for j in range(n) if j != c] for i in range(n) if i != r]

    return [
        [(-1) ** (i + j) * _det_mod(minor(j, i), p) * dinv % p for j in range(n)]
        for i in range(n)
    ]


def adjoint(g, nu):
    """Ad(g^{-1}) nu = g^{-1} nu g for two FqMatrix values, g inverted
    afresh by the adjugate on every call."""
    if g.p != nu.p:
        raise ValueError("field mismatch")
    p = g.p
    m = _mat_mul_mod(_inv_mod(g.entries, p), _mat_mul_mod(nu.entries, g.entries, p), p)
    return tuple(map(tuple, m))


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


def charpoly_laplace(m, p):
    """det(X·I - m) mod p, constant term first, by Laplace expansion along
    the first row over entries that are polynomials in X."""
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


def nu_sets_brute(flags, n, p, test):
    """For each flag matrix g, filter all p^(n^2) matrices nu: keep
    {index: Ad(g^{-1})nu} for those with test(Ad(g^{-1})nu), the index
    being nu's position in itertools.product order over its entries read
    row by row."""
    out = []
    for g in flags:
        g = [list(row) for row in g]
        ginv = _inv_mod(g, p)
        found = {}
        for index, flat in enumerate(itertools.product(range(p), repeat=n * n)):
            nu = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            m = _mat_mul_mod(ginv, _mat_mul_mod(nu, g, p), p)
            if test(m):
                found[index] = tuple(map(tuple, m))
        out.append(found)
    return out


def partial_flags_dedup(full_flags, blocks, key):
    """One matrix per coset gP: of the full flags, in their order, the
    first with each label key(g, blocks).  Every full flag is visited,
    and the label costs one RREF per prefix of the blocks."""
    seen = {}
    for g in full_flags:
        seen.setdefault(key(g, blocks), g)
    return list(seen.values())


def _rref_mod(rows, p):
    """Reduced row echelon form of the row space, zero rows dropped, by
    textbook Gauss-Jordan elimination with row swaps."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return tuple(tuple(row) for row in work[:rank])


def partial_flag_key_by_prefix(g, p, blocks):
    """The label of the partial flag of the matrix g for the blocks: one
    fresh RREF of the span of the first k columns per proper prefix sum k."""
    cols = tuple(zip(*g))
    return tuple(_rref_mod(cols[:k], p) for k in itertools.accumulate(blocks[:-1]))


def _rank_mod(rows, p):
    return len(_rref_mod(rows, p))


def bruhat_cell_rank_profile(g, p):
    """The w with g in B·dot(w)·B, from a separate rank computation of
    every lower-left slab: w(j) is the row i where
    r(i, j) - r(i+1, j) - r(i, j-1) + r(i+1, j-1) = 1, r(i, j) being the
    rank of rows i..n, columns 1..j."""
    n = len(g)

    def r(i, j):
        if i > n or j < 1:
            return 0
        return _rank_mod([row[:j] for row in g[i - 1 :]], p)

    w = []
    for j in range(1, n + 1):
        hits = [
            i
            for i in range(1, n + 1)
            if r(i, j) - r(i + 1, j) - r(i, j - 1) + r(i + 1, j - 1) == 1
        ]
        assert len(hits) == 1, (g, j, hits)
        w.append(hits[0])
    return tuple(w)


def nu_image_sets(flags, n, p, blocks):
    """For each flag matrix g, {index of nu: Ad(g^{-1})nu} over the nu
    with Ad(g^{-1})nu in p.  That set is exactly {g x g^{-1} : x in p},
    so it is walked from x, one coordinate of p at a time, adding
    multiples of the images g E_ij g^{-1}.  The index of nu is its base-p
    value read row by row, first entry most significant, as in
    nu_sets_brute."""
    bl = block_of(blocks)
    positions = [(i, j) for i in range(n) for j in range(n) if bl[i + 1] <= bl[j + 1]]
    out = []
    for g in flags:
        ginv = _inv_mod(g, p)
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
    return out


# both keyed by value, as each x in p(F_p) recurs across flags
@lru_cache(maxsize=None)
def levi_charpolys_laplace(m, blocks, p):
    """The characteristic polynomial (Laplace expansion) of each diagonal
    block of the matrix m."""
    out, lo = [], 0
    for size in blocks:
        out.append(charpoly_laplace([row[lo : lo + size] for row in m[lo : lo + size]], p))
        lo += size
    return tuple(out)


@lru_cache(maxsize=None)
def block_root_polys(roots, blocks, p):
    """prod (X - r) over the roots r of each block."""
    out, lo = [], 0
    for size in blocks:
        poly = (1,)
        for root in roots[lo : lo + size]:
            poly = _poly_mul(poly, ((-root) % p, 1), p)
        out.append(poly)
        lo += size
    return tuple(out)


def nu_sweep_rows(n, p, full_flags, partial_flags):
    """The fiber_dimension and weight_map verdicts by the two-flag sweep:
    {(check, blocks, w): (expected, observed, pass)} in run_suite's terms.

    Every pair (g1 B, g2 P) of a full flag and a partial flag is placed
    by the rank profile of g1^{-1} g2; its fiber is the intersection of
    the two flags' Ad-image sets, and at each nu there the Levi-block
    characteristic polynomials of Ad(g2^{-1})nu (Laplace expansion) are
    compared with prod (X - d_{w(j)}), d the diagonal of Ad(g1^{-1})nu.
    partial_flags maps each composition to its flag matrices."""
    full_sets = nu_image_sets(full_flags, n, p, (1,) * n)
    full_inverses = [_inv_mod(g, p) for g in full_flags]
    rows = {}
    for blocks in compositions(n):
        partial = partial_flags[blocks]
        partial_sets = nu_image_sets(partial, n, p, blocks)
        pairs = {}
        for g1inv, s1 in zip(full_inverses, full_sets):
            for g2, s2 in zip(partial, partial_sets):
                cell = bruhat_cell_rank_profile(_mat_mul_mod(g1inv, g2, p), p)
                pairs.setdefault(min_coset_rep_brute(cell, blocks), []).append((s1, s2))
        for w in min_reps_brute(blocks):
            expected = p ** (n * (n + 1) // 2 - inversion_count(w))
            histogram = {}
            ok = True
            for s1, s2 in pairs.get(w, []):
                common = s1.keys() & s2.keys()
                histogram[len(common)] = histogram.get(len(common), 0) + 1
                for idx in common:
                    weights = tuple(s1[idx][k - 1][k - 1] for k in w)
                    ok = ok and levi_charpolys_laplace(s2[idx], blocks, p) == block_root_polys(weights, blocks, p)
            passed = bool(histogram) and set(histogram) == {expected}
            rows["fiber_dimension", blocks, w] = (expected, histogram, passed)
            rows["weight_map", blocks, w] = (True, ok, ok)
    return rows


# ---------------------------------------------------------------------------
# reference forms of fforacle's per-flag kernels: each point built entry by
# entry, whole rows subtracted, every pivot scaled and whole products formed


def eliminate_gauss_jordan(rows, p):
    """Gauss-Jordan elimination mod p in one pass, taking the columns left
    to right: the reference for fforacle's echelon form and its rref.

    Rows are never swapped.  A column's pivot is the lowest row not yet
    holding a pivot whose entry there is nonzero; rank and RREF do not
    depend on that choice.  It is scaled to 1 and cleared from every other
    row.  Returns the worked rows and the (column, row) pivot pairs in
    column order, so the pivot rows, read in that order, are the RREF."""
    work = [list(r) for r in rows]
    free = list(range(len(work) - 1, -1, -1))  # rows without a pivot, lowest first
    pivots = []
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


def flag_points_listwise(n, p):
    """(cell, (p, u·dot(w)), inverse) for every Borel coset, in the order of
    fforacle._flags over G/B and of its inverse table: the cells of
    fforacle._cell_points by (length, w), each in the order of its
    coordinates.  The point's entries are read one by one through w, and
    u^{-1} comes by back substitution of whole rows."""
    out = []
    for w in sorted(all_perms(n), key=lambda w: (inversion_count(w), w)):
        wi = inverse(w)
        free = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if wi[i - 1] > wi[j - 1]]
        for coords in itertools.product(range(p), repeat=len(free)):
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            for (i, j), value in zip(free, coords):
                u[i - 1][j - 1] = value
            v = [[]] * n
            for i in reversed(range(n)):
                v[i] = [int(i == j) for j in range(n)]
                for k in range(i + 1, n):
                    if u[i][k]:
                        v[i] = [(x - u[i][k] * y) % p for x, y in zip(v[i], v[k])]
            g = tuple(tuple(row[k - 1] for k in w) for row in u)
            out.append((w, (p, g), tuple(tuple(v[k - 1]) for k in w)))
    return out


def cell_normal_form_max_scan(g, p):
    """fforacle.cell_normal_form with the pivot found by max() over the
    nonzero rows and every column scaled, its pivot 1 or not."""
    cell, cols = [], []
    for v in zip(*g):
        for r, col in zip(cell, cols):
            if f := v[r]:
                v = [(x - f * y) % p for x, y in zip(v, col)]
        r = max((i for i, x in enumerate(v) if x), default=None)
        if r is None:
            raise ValueError("singular matrix")
        inv = pow(v[r], p - 2, p)
        cell.append(r)
        cols.append([x * inv % p for x in v])
    return tuple(r + 1 for r in cell), tuple(zip(*cols))


def incidence_full_product(nu, p, table, zeros):
    """(count, witnesses, by_cell) of fforacle.incidence_count over the
    given (flag point, inverse) pairs: the whole of nu·g formed mod p at
    each point, then g^{-1}·(nu·g) at the tested entries zeros."""
    witnesses, by_cell = [], {}
    for point, inverse in table:
        cols = tuple(zip(*_mat_mul_mod(nu, point.canonical_matrix.entries, p)))
        if not any(sum(x * y for x, y in zip(inverse[i], cols[j])) % p for i, j in zeros):
            witnesses.append(point)
            by_cell[point.cell] = by_cell.get(point.cell, 0) + 1
    return len(witnesses), tuple(witnesses), tuple(by_cell.items())


def span_points(vectors, width, p):
    """Every point of the span of vectors over F_p, once per coefficient
    tuple, as the whole list built one vector at a time."""
    points = [(0,) * width]
    for vector in vectors:
        points = [tuple((x + c * y) % p for x, y in zip(point, vector)) for point in points for c in range(p)]
    return points


def levi_projection(point, blocks, w):
    """What fforacle's weight_map walk reads of a kernel point (Ad(g2^{-1})nu
    row by row, then the diagonal of nu): the Levi-block entries, block by
    block and row by row, and the weights d_{w(j)}."""
    n = len(w)
    bounds = list(itertools.accumulate((0,) + tuple(blocks)))
    levi = tuple(
        point[i * n + j] for lo, hi in zip(bounds, bounds[1:]) for i in range(lo, hi) for j in range(lo, hi)
    )
    return levi, tuple(point[n * n + k - 1] for k in w)


def weight_map_unprojected(kernels, blocks, w, p):
    """weight_map_check's verdict by walking every point of each kernel:
    kernels yields, per partial flag, a basis of vectors holding
    Ad(g2^{-1})nu row by row, then the diagonal of nu.  At every point the
    Levi-block characteristic polynomials of the whole image (Laplace
    expansion) are compared with prod (X - d_{w(j)})."""
    n = len(w)
    blocks = tuple(blocks)
    for kernel in kernels:
        for point in span_points(kernel, n * n + n, p):
            image = tuple(point[i * n : (i + 1) * n] for i in range(n))
            weights = tuple(point[n * n + k - 1] for k in w)
            if levi_charpolys_laplace(image, blocks, p) != block_root_polys(weights, blocks, p):
                return False
    return True


def good_form_fraction(v):
    """fforacle.good_form_conjugate swept entry by entry in the field
    itself: over F_p (an FqMatrix) every entry reduced mod p and each
    division by an inverse mod p; over Q integers stay int, a division is
    a Fraction when inexact, and from then on every entry it reaches is a
    Fraction; any other input entry is read as a Fraction."""
    modular = isinstance(v, fforacle.FqMatrix)
    if modular:
        p = v.p
        convert = norm = lambda x: x % p
        div = lambda a, b: a * pow(b % p, p - 2, p) % p
    else:
        convert = lambda x: x if type(x) is int else Fraction(x)
        div = lambda a, b: a // b if type(a) is type(b) is int and not a % b else Fraction(a) / b
        norm = lambda x: x

    rows = [[convert(x) for x in row] for row in (v.entries if modular else v)]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if not fforacle.in_b(rows):
        raise ValueError("input is not upper triangular")
    original = [row[:] for row in rows]
    b = [[convert(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(2, n + 1):
        for k in range(j - 1, 0, -1):
            if rows[k - 1][k - 1] == rows[j - 1][j - 1]:
                continue
            c = div(rows[k - 1][j - 1], rows[j - 1][j - 1] - rows[k - 1][k - 1])
            if c == 0:
                continue
            for r in range(n):
                rows[r][j - 1] = norm(rows[r][j - 1] + c * rows[r][k - 1])
            for l in range(n):
                rows[k - 1][l] = norm(rows[k - 1][l] - c * rows[j - 1][l])
            for r in range(n):
                b[r][j - 1] = norm(b[r][j - 1] + c * b[r][k - 1])

    assert all(rows[i][j] == 0 for i in range(n) for j in range(n) if original[i][i] != original[j][j])
    assert fforacle.in_b(b) and all(b[i][i] == 1 for i in range(n)) and fforacle.in_b(rows)
    for i in range(n):
        for j in range(i, n):
            span = range(i, j + 1)
            assert norm(sum(original[i][t] * b[t][j] for t in span)) == norm(sum(b[i][t] * rows[t][j] for t in span))
    b, rows = tuple(map(tuple, b)), tuple(map(tuple, rows))
    return (fforacle.FqMatrix(p, b), fforacle.FqMatrix(p, rows)) if modular else (b, rows)


def multi_reduced_word_rescan(w):
    """Reference for weyl.multi_reduced_word: after every swap, rescan
    every factor for its right descents and strip the smallest (index,
    label) one; the letters come out in multiplication order."""
    rev = []
    cur = dict(w)
    while True:
        cands = [(i, tau) for tau in cur for i in range(1, len(cur[tau])) if cur[tau][i - 1] > cur[tau][i]]
        if not cands:
            break
        i, tau = min(cands)
        rev.append((tau, i))
        lst = list(cur[tau])
        lst[i - 1], lst[i] = lst[i], lst[i - 1]
        cur[tau] = tuple(lst)
    return tuple(reversed(rev))


# ---------------------------------------------------------------------------
# reference forms of the listing path: every element passed through the
# checked multi-permutation helpers, and every label map copied into lists
# in sorted label order before json.dumps


def listing_specs():
    """Every spec of rank <= 5 at one label, and every two-label spec with
    ranks <= 3, its labels given in unsorted order (b before a)."""
    specs = [{"t": blocks} for n in range(1, 6) for blocks in compositions(n)]
    small = [blocks for n in range(1, 4) for blocks in compositions(n)]
    specs += [{"b": b, "a": a} for b in small for a in small]
    return specs


def perm_to_json(w):
    """A label-keyed map of integer tuples (a multi-permutation, a weight
    or a block spec) as lists, labels sorted."""
    return {tau: list(w[tau]) for tau in sorted(w)}


def coset_to_json(w):
    return {"rep": perm_to_json(w.rep), "blocks": perm_to_json(w.spec), "lg": w.lg}


def step_to_json(step):
    return {
        "alpha": {"tau": step.alpha.tau, "i": step.alpha.i, "j": step.alpha.j},
        "q_blocks": perm_to_json(step.Q),
        "from": coset_to_json(step.w_from),
        "to": coset_to_json(step.w_to),
    }


def character_to_json(c):
    return {
        "algebraic_weight": perm_to_json(c.algebraic_weight),
        "smooth_labels": [{"place": place, "labels": list(labels)} for place, labels in c.smooth_labels],
        "twisted": True,
    }


def certificate_to_json(cert):
    return {
        "start": coset_to_json(cert.start),
        "end": coset_to_json(cert.end),
        "chain": [step_to_json(step) for step in cert.chain],
        "pass": cert.passed,
    }


def steinberg_components_full_flag(qspec):
    """w_{Q,0}·w' for w' in ^QW, each w' built as an inverse dict of a
    minimal representative of W/W_Q and composed by weyl.multi_compose,
    sorted by (length, weyl.freeze)."""
    wq0 = cosets.longest_in_levi(qspec)
    labels = sorted(qspec)
    pairs = [
        (lg, weyl.multi_compose(wq0, {tau: weyl.inverse(w) for tau, w in zip(labels, parts)}))
        for lg, parts in cosets._quotient_parts(roots.check_spec(qspec))
    ]
    pairs.sort(key=lambda pair: (pair[0], weyl.freeze(pair[1])))
    return [w for _, w in pairs]


def twist(weight):
    """Add the per-embedding staircase (0, 1, ..., n-1) to a weight."""
    return {tau: tuple(x + i for i, x in enumerate(v)) for tau, v in weight.items()}


def character_for(w, h, refinement):
    """delta_{R,w} through roots.act, which checks the shapes and inverts
    w for every coset, with the smooth labels built anew."""
    smooth = tuple((p.place, p.labels) for p in refinement.places)
    return companion.CharacterSymbol(twist(roots.act(w.rep, h)), smooth)


def companion_set(refinement, h, w_R):
    companion._quotient_of(w_R, h)
    return [(w, character_for(w, h, refinement)) for w in cosets._interval(w_R, up=True)]


# ---------------------------------------------------------------------------
# the walk as it was stepped before its one unchecked step body: s_alpha
# composed on the left as a multi-permutation, the target normalized by
# CosetRep, and the three facts read through the checked roots.dominance


def multi_simple_reflection(shape, tau, i):
    """s_i in the factor labelled tau, the identity in every other factor."""
    out = {t: tuple(range(1, n + 1)) for t, n in shape.items()}
    out[tau] = apply_simple_right(out[tau], i)
    return out


def walk(w_R, h):
    """The steps from w_R up to the top coset: at each coset w the smallest
    (index, label) simple root alpha with <alpha, w(h)> < 0, and Q = B(alpha)
    the spec whose only block of size 2 merges alpha's pair."""
    shape = weyl.shape_of(h)
    simple = [roots.Root(tau, i, i + 1) for tau in sorted(shape) for i in range(1, shape[tau])]
    steps, cur = [], w_R
    while True:
        wh = roots.act(cur.rep, h)
        cands = [a for a in simple if roots.pairing(a, wh) < 0]
        if not cands:
            return steps
        alpha = min(cands, key=lambda a: (a.i, a.tau))
        q = {tau: (1,) * n for tau, n in shape.items()}
        q[alpha.tau] = q[alpha.tau][: alpha.i - 1] + (2,) + q[alpha.tau][alpha.i + 1 :]
        s_alpha = multi_simple_reflection(shape, alpha.tau, alpha.i)
        target = cosets.CosetRep(weyl.multi_compose(s_alpha, cur.rep), cur.spec)
        assert target.lg == cur.lg + 1
        assert roots.dominance(roots.act(target.rep, h), q)
        assert not roots.dominance(wh, q)
        steps.append(steinberg.InductionStep(alpha, q, cur, target))
        cur = target


def plant(monkeypatch, module, name, old, new):
    """Replace module.<name> by its source with old, which must occur
    once, rewritten as new: a planted error that a check must report."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, name, namespace[name])
