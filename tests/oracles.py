"""Brute-force reference implementations used only by the tests.

Everything in here is deliberately dumb and slow: BFS over Cayley graphs,
subword products, exhaustive coset enumeration, raw counting formulas.
The library under test must agree with these on small ranks.  Nothing in
src/ may import this module.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


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
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


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


def _rank_mod(rows, p):
    work = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][c] * pow(work[rank][c], p - 2, p)
            work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


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
