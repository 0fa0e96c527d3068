import inspect
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from weylflags import cli, fforacle as ff
from weylflags.cosets import min_rep_perm


def perms(n):
    return map(tuple, itertools.permutations(range(1, n + 1)))


def rand_matrix(rng, n, p):
    return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))


def rand_invertible(rng, n, p):
    while True:
        m = rand_matrix(rng, n, p)
        if oracles._rank_mod(m, p) == n:
            return m


def prefix_key(g, blocks):
    return oracles.partial_flag_key_by_prefix(g.entries, g.p, blocks)


def identity_rows(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def rand_upper_invertible(rng, n, p):
    return tuple(
        tuple(
            rng.randrange(1, p) if i == j else (rng.randrange(p) if j > i else 0)
            for j in range(n)
        )
        for i in range(n)
    )


# the ff-grid points of the benchmark, and (3, 7)
GRID = ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 5), (3, 7), (4, 2), (4, 3))


def test_fqmatrix_normalizes_mod_p():
    m = ff.FqMatrix(3, ((4, -1), (0, 5)))
    assert m.entries == ((1, 2), (0, 2))
    assert m.n == 2
    with pytest.raises(ValueError):
        ff.FqMatrix(4, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        ff.FqMatrix(3, ((1, 0, 0), (0, 1, 0)))


def test_matrix_arithmetic_roundtrips():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for _ in range(20):
                m = rand_invertible(rng, n, p)
                inv = oracles._inv_mod(m, p)
                assert oracles._mat_mul_mod(m, inv, p) == identity_rows(n)
                assert oracles._mat_mul_mod(inv, m, p) == identity_rows(n)
                assert len(ff.rref(m, p)) == n


def test_rref_is_canonical_under_row_operations():
    rng = random.Random(11)
    p, n = 3, 3
    for _ in range(25):
        m = rand_matrix(rng, n, p)
        g = rand_invertible(rng, n, p)
        assert ff.rref(oracles._mat_mul_mod(g, m, p), p) == ff.rref(m, p)


def test_row_reduction_matches_the_gauss_jordan_reference():
    # random matrices up to the nu kernels' 10 x 26 (dim b rows at n = 4),
    # sparse or of low rank, and unreduced for rref: the echelon form's
    # rank and pivot columns, the span of its rows whose pivot lies past a
    # cut (the kernel rows), compared as RREF, and rref agree with
    # one-pass Gauss-Jordan
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            rows, cols = rng.randint(1, 10), rng.randint(1, 26)
            if rng.random() < 0.5:
                density = rng.random()
                m = [[rng.randrange(-p, 2 * p) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
            else:
                k = rng.randint(1, 4)
                left, right = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)], rand_matrix(rng, 26, p)[:k]
                m = [[sum(x * y[c] for x, y in zip(row, right)) for c in range(cols)] for row in left]
            work, pivots = oracles.eliminate_gauss_jordan(m, p)
            echelon = ff._eliminate([[x % p for x in row] for row in m], p)
            assert [c for c, _ in echelon] == [c for c, _ in pivots], (p, m)
            assert ff.rref(m, p) == tuple(tuple(x % p for x in work[r]) for _, r in pivots), (p, m)
            for cut in range(cols + 1):
                kernel = [row[cut:] for c, row in echelon if c >= cut]
                reference = [work[r][cut:] for c, r in pivots if c >= cut]
                assert oracles._rref_mod(kernel, p) == oracles._rref_mod(reference, p), (p, m, cut)


def test_perm_matrix_convention_and_homomorphism():
    # entry (i, j) of the matrix of w is 1 iff i = w(j)
    w = (2, 3, 1)
    rows = oracles._perm_matrix(w)
    for i in range(1, 4):
        for j in range(1, 4):
            assert rows[i - 1][j - 1] == (1 if i == w[j - 1] else 0)
    for u in perms(3):
        for v in perms(3):
            lhs = ff.FqMatrix(5, oracles._perm_matrix(oracles.compose(u, v))).entries
            rhs = oracles._mat_mul_mod(oracles._perm_matrix(u), oracles._perm_matrix(v), 5)
            assert lhs == rhs


def test_cell_free_positions_count_is_length():
    for n in (2, 3, 4):
        for w in perms(n):
            free = ff.cell_free_positions(w)
            assert len(free) == oracles.inversion_count(w)
            assert len(set(free)) == len(free)


def test_bruhat_cell_of_permutation_matrices():
    # dot(w) is the point of its own cell, u = 1
    for n in (2, 3, 4):
        for w in perms(n):
            g = ff.FqMatrix(2, oracles._perm_matrix(w))
            assert ff.cell_normal_form(g) == (w, g.entries)


def test_bruhat_cell_is_borel_biinvariant():
    rng = random.Random(13)
    p, n = 3, 3
    for w in perms(n):
        for _ in range(8):
            b1 = rand_upper_invertible(rng, n, p)
            b2 = rand_upper_invertible(rng, n, p)
            g = oracles._mat_mul_mod(b1, oracles._mat_mul_mod(oracles._perm_matrix(w), b2, p), p)
            assert ff.cell_normal_form(ff.FqMatrix(p, g))[0] == w


def test_bruhat_cell_matches_rank_profile_route():
    # every flag point, and the same coset moved by a random b in B
    rng = random.Random(29)
    for n, p in ((3, 3), (4, 2)):
        for point in ff.enumerate_flags(n, p):
            g = point.canonical_matrix.entries
            moved = oracles._mat_mul_mod(g, rand_upper_invertible(rng, n, p), p)
            for m in (g, moved):
                assert oracles.bruhat_cell_rank_profile(m, p) == point.cell
    # and the normal form's cell on random invertible matrices, over every GRID point
    for n, p in GRID:
        for _ in range(20):
            g = rand_invertible(rng, n, p)
            assert ff.cell_normal_form(ff.FqMatrix(p, g))[0] == oracles.bruhat_cell_rank_profile(g, p), (g, p)


def test_bruhat_cell_rejects_singular():
    # a zero column, a repeated column, and a column that reduces to zero
    for p, g in ((3, ((1, 1), (2, 2))), (2, ((0, 1), (0, 1))), (5, ((1, 2, 3), (0, 1, 1), (0, 0, 0)))):
        with pytest.raises(ValueError, match="singular matrix"):
            ff.cell_normal_form(ff.FqMatrix(p, g))


def test_flag_enumeration_counts():
    for n, p in ((2, 2), (2, 5), (3, 2), (3, 3)):
        flags = ff.enumerate_flags(n, p)
        assert len(flags) == oracles.q_factorial(n, p)
        per_cell = {}
        for point in flags:
            per_cell[point.cell] = per_cell.get(point.cell, 0) + 1
        for w in perms(n):
            assert per_cell[w] == p ** oracles.inversion_count(w)
        keys = {ff.cell_normal_form(point.canonical_matrix) for point in flags}
        assert len(keys) == len(flags)


def test_partial_flag_enumeration_counts():
    for blocks, p in (((2, 1), 2), ((2, 1), 3), ((1, 1, 2), 2), ((2, 2), 3)):
        n = sum(blocks)
        partial = ff.enumerate_partial_flags(n, p, blocks)
        expected = oracles.gl_order(n, p) // oracles.parabolic_order(blocks, p)
        assert len(partial) == expected
        keys = {prefix_key(g, blocks) for g in partial}
        assert len(keys) == expected


def test_partial_flags_match_the_dedup_route():
    # the minimal cells give, in the same order, the first full flag of
    # each coset gP
    for n, p in GRID:
        full = [point.canonical_matrix for point in ff.enumerate_flags(n, p)]
        for blocks in oracles.compositions(n):
            assert ff.enumerate_partial_flags(n, p, blocks) == oracles.partial_flags_dedup(
                full, blocks, prefix_key
            ), (n, p, blocks)


def test_every_flag_is_its_own_normal_form():
    # with its own cell, and so is the flag moved by a random b in B
    rng = random.Random(31)
    for n, p in GRID:
        for point in ff.enumerate_flags(n, p):
            g = point.canonical_matrix
            moved = ff.FqMatrix(p, oracles._mat_mul_mod(g.entries, rand_upper_invertible(rng, n, p), p))
            assert ff.cell_normal_form(g) == ff.cell_normal_form(moved) == (point.cell, g.entries), (n, p, point)


def test_cell_normal_form_matches_the_max_scan_reference():
    # on every enumerated point, whose pivots are 1, and on the point moved
    # by a random b in B and on random matrices, whose pivots need not be
    rng = random.Random(37)
    for n, p in GRID:
        matrices = [point.canonical_matrix.entries for point in ff.enumerate_flags(n, p)]
        matrices += [oracles._mat_mul_mod(g, rand_upper_invertible(rng, n, p), p) for g in matrices]
        matrices += [rand_invertible(rng, n, p) for _ in range(12)]
        for g in matrices:
            assert ff.cell_normal_form(ff.FqMatrix(p, g)) == oracles.cell_normal_form_max_scan(g, p), (n, p, g)


def test_normal_forms_agree_with_the_per_prefix_rref_keys():
    # g·b has the normal form of g, and two matrices have equal normal
    # forms exactly when their full flags have equal keys, one rref per
    # prefix; at p = 2 and n = 2 random pairs often share a coset
    rng = random.Random(23)
    for n, p in GRID:
        matrices = [rand_invertible(rng, n, p) for _ in range(12)]
        matrices += [oracles._mat_mul_mod(g, rand_upper_invertible(rng, n, p), p) for g in matrices]
        forms = [ff.cell_normal_form(ff.FqMatrix(p, g)) for g in matrices]
        assert forms[:12] == forms[12:], (n, p)
        keys = [oracles.partial_flag_key_by_prefix(g, p, (1,) * n) for g in matrices]
        for (f1, k1), (f2, k2) in itertools.combinations(zip(forms, keys), 2):
            assert (f1 == f2) == (k1 == k2), (n, p, f1, f2)


def test_partial_flag_points_carry_their_cell():
    for n, p in GRID:
        for blocks in oracles.compositions(n):
            for point in ff._flags(n, p, blocks):
                g = point.canonical_matrix
                assert point.cell == ff.cell_normal_form(g)[0], (n, p, blocks)
                assert point.cell == min_rep_perm(point.cell, blocks), (n, p, blocks)


def flag_table(n, p, blocks):
    """(point, inverse) over G/P, cell by cell: each cell's points with its
    inverse table, the two checked to have one entry per point."""
    table = []
    for w in ff._cells(blocks):
        points, inverses = ff._cell_points(w, p), ff._cell_inverses(w, p)
        assert len(points) == len(inverses), (w, p)
        table += zip(points, inverses)
    return table


def test_flag_points_are_cell_points_with_their_inverses():
    # u·dot(w) is u with its columns permuted; the unipotent u is the
    # point with the permutation undone, and the inverse table holds the
    # inverse of each point at its index
    for n, p in GRID:
        identity = identity_rows(n)
        table = flag_table(n, p, (1,) * n)
        assert [point for point, _ in table] == ff.enumerate_flags(n, p), (n, p)
        for point, inverse in table:
            g = point.canonical_matrix.entries
            u = oracles._mat_mul_mod(g, oracles._perm_matrix(oracles.inverse(point.cell)), p)
            assert g == oracles._mat_mul_mod(u, oracles._perm_matrix(point.cell), p), (n, p, point)
            assert ff.in_b(u) and all(u[i][i] == 1 for i in range(n)), (n, p, point)
            assert oracles._mat_mul_mod(g, inverse, p) == identity, (n, p, point)


def test_point_count_and_incidence_zero_build_no_inverse(monkeypatch, cold_fforacle):
    # neither reads an inverse: point_count classifies each point from its
    # matrix, and the zero nu has no column for g^{-1} to test
    built = []
    monkeypatch.setattr(ff, "_cell_inverses", lambda w, p: built.append(w) or ())
    rows = ff.run_suite(4, 3, ["point_count", "incidence_zero"])
    assert [row["pass"] for row in rows] == [True, True]
    assert built == []


def test_trusted_flag_points_equal_checked_matrices():
    # _cell_points builds each point with FqMatrix._make, skipping the
    # prime and reduction checks that FqMatrix(p, entries) makes
    for n, p in GRID:
        for point in ff._flags(n, p, (1,) * n):
            g = point.canonical_matrix
            assert type(g) is ff.FqMatrix and g == ff.FqMatrix(p, g.entries), (n, p, point)


def test_flag_points_match_the_listwise_reference():
    # cell, matrix and inverse of every point, in order, against the
    # entry-by-entry points and whole-row back substitution
    for n, p in GRID:
        reference = oracles.flag_points_listwise(n, p)
        points = [tuple(point) + (inverse,) for point, inverse in flag_table(n, p, (1,) * n)]
        assert points == reference, (n, p)
        assert [tuple(point) for point in ff._flags(n, p, (1,) * n)] == [row[:2] for row in reference], (n, p)


def test_flag_enumeration_and_incidence_refuse_bad_blocks():
    # (3, -1) sums to 2 but is no composition, and the blocks of a
    # condition must have the rank of nu, as the flag blocks must
    zero = ff.FqMatrix(3, ((0, 0), (0, 0)))
    for blocks, message in (((1,), "do not sum to 2"), ((3, -1), "must be positive"), ((0, 2), "must be positive")):
        with pytest.raises(ValueError, match=message):
            ff.enumerate_partial_flags(2, 3, blocks)
        with pytest.raises(ValueError, match=message):
            ff.incidence_count(zero, "in_p", "partial_flag", blocks=blocks)
        with pytest.raises(ValueError, match=message):
            ff.incidence_count(zero, "in_p", "full_flag", blocks=blocks)


def test_shortest_element_check_refuses_non_positive_blocks():
    with pytest.raises(ValueError, match="must be positive"):
        ff.shortest_element_fq_check((2, 1, 3), (3, 0), 2)


def test_point_count_identity_pinned():
    assert ff.point_count_identity(3, 2)["enumerated"] == 21
    report = ff.point_count_identity(3, 3)
    assert report["enumerated"] == 52
    assert report["pass"] is True
    assert report["cell_sum"] == report["q_factorial"] == report["group_quotient"] == 52


@pytest.mark.parametrize("corruption", ["repeated coset", "wrong cell"])
def test_point_count_identity_can_fail(monkeypatch, corruption):
    # x·b (b in B, b != 1), labelled with x's cell, in place of another
    # point; or the last point labelled with the first point's cell
    n, p = 3, 2
    points = list(ff._flags(n, p, (1,) * n))
    clean = ff.point_count_identity(n, p)
    if corruption == "repeated coset":
        x = points[7]
        xb = ff.FqMatrix(p, oracles._mat_mul_mod(x.canonical_matrix.entries, ((1, 1, 1), (0, 1, 1), (0, 0, 1)), p))
        assert xb != x.canonical_matrix
        k, point, changed = 12, ff.FlagPoint(x.cell, xb), {"distinct_cosets": len(points) - 1}
    else:
        last = points[-1]
        point = ff.FlagPoint(points[0].cell, last.canonical_matrix)
        k, changed = len(points) - 1, {"cells_roundtrip": False}
    broken = tuple(points[:k] + [point] + points[k + 1 :])
    monkeypatch.setattr(ff, "_flags", lambda *args: broken)
    assert ff.point_count_identity(n, p) == {**clean, **changed, "pass": False}


def clear_fforacle_caches():
    for obj in vars(ff).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


@pytest.fixture
def cold_fforacle(monkeypatch):
    """fforacle's lru caches, the weight_map verdict memo included, empty
    before the test and again once its patches are undone, so a planted
    corruption meets no clean cached result and leaves none of its own."""
    clear_fforacle_caches()
    yield
    monkeypatch.undo()
    clear_fforacle_caches()


@pytest.mark.parametrize("check", ["fiber_dimension", "weight_map"])
def test_nu_checks_report_a_corrupted_point_in_the_middle_of_a_cell(monkeypatch, capsys, cold_fforacle, check):
    # the middle point of the 9-point cell of (2, 3, 1) at (3, 3) keeps its
    # matrix, and its entry in the inverse table loses its last row: that
    # flag's kernel map drops rank and its image changes, so the rows of
    # that cell fail in both partial flag varieties it lies in, and a check
    # that read only the first flag of each cell would pass them
    n, p, w = 3, 3, (2, 3, 1)
    clean = ff._cell_inverses
    inverses = clean(w, p)
    target = inverses[len(inverses) // 2]
    bad = target[:-1] + ((0,) * n,)
    monkeypatch.setattr(ff, "_cell_inverses", lambda v, q: tuple(bad if x is target else x for x in clean(v, q)))
    failed = {(tuple(row["params"]["blocks"]), tuple(row["params"]["w"])) for row in ff.run_suite(n, p, [check])
              if not row["pass"]}
    assert failed == {((1, 1, 1), w), ((2, 1), w)}
    assert cli.main(["ff-verify", "--n", "3", "--p", "3", "--suite", check]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


@pytest.mark.parametrize("corruption", ["dropped flag", "repeated flag"])
def test_incidence_rows_report_a_dropped_or_repeated_flag(monkeypatch, capsys, cold_fforacle, corruption):
    # the point dot(w) of the cell of w = (2, 3, 1) at (3, 3), with its
    # inverse, is left out of every enumeration that holds it, or held
    # twice: the zero nu's count over G/B moves off [n]_p!, and so does the
    # count of diag(0, 1, 2), whose witnesses are the points dot(w) P, in
    # the two partial flag varieties whose minimal cells hold w
    n, p, w = 3, 3, (2, 3, 1)
    assert ff._cell_points(w, p)[0].canonical_matrix.entries == tuple(map(tuple, oracles._perm_matrix(w)))

    def corrupted(clean):
        def table(v, q):
            entries = list(clean(v, q))
            if (v, q) == (w, p):
                entries[:1] = entries[:1] * 2 if corruption == "repeated flag" else []
            return tuple(entries)
        return table

    monkeypatch.setattr(ff, "_cell_points", corrupted(ff._cell_points))
    monkeypatch.setattr(ff, "_cell_inverses", corrupted(ff._cell_inverses))
    rows = ff.run_suite(n, p, ["incidence_zero", "covering_degree"])
    failed = {(row["check"], tuple(row["params"].get("blocks", ()))) for row in rows if not row["pass"]}
    assert failed == {("incidence_zero", ()), ("covering_degree", (1, 1, 1)), ("covering_degree", (2, 1))}
    assert cli.main(["ff-verify", "--n", "3", "--p", "3", "--suite", "incidence_zero,covering_degree"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def plant(monkeypatch, name, old, new):
    """Replace fforacle.<name> by its source with old, which must occur
    once, rewritten as new."""
    source = inspect.getsource(getattr(ff, name))
    assert source.count(old) == 1
    namespace = dict(vars(ff))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(ff, name, namespace[name])


@pytest.mark.parametrize("name, old, new, check, passes", [
    # the nonzero root of 2xt + x^2 y = 0 taken as +2t/y: the solution set
    # of every (t, y) with t, y != 0 then disagrees with its case split
    ("blowup_equation_check", "(-2 * t * pow(y, p - 2, p)) % p", "(2 * t * pow(y, p - 2, p)) % p", "blowup", [False]),
    # lower_left computed as +(2xt + x^2 y): it still vanishes exactly when
    # the equation holds, so only the sign relation sees the error
    ("blowup_equation_check", "lower_left = sum(", "lower_left = -sum(", "blowup", [False]),
    # b never updated: v' keeps its zeros, but v·b = b·v' fails
    ("_good_form", "for row in m:", "for row in m[:n]:", "good_form", [False]),
    # the weights read as d_{w(n+1-j)}: both rows of the Borel fail, and
    # the one block of (2,), whose polynomial is symmetric in them, passes
    ("_weights_match", "for k in w]", "for k in reversed(w)]", "weight_map", [False, False, True]),
], ids=["blowup-root-sign", "blowup-lower-left-sign", "good-form-conjugacy", "weight-map-reversed-weights"])
def test_a_planted_error_fails_its_row(monkeypatch, capsys, name, old, new, check, passes):
    plant(monkeypatch, name, old, new)
    assert [row["pass"] for row in ff.run_suite(2, 3, [check])] == passes
    assert cli.main(["ff-verify", "--n", "2", "--p", "3", "--suite", check]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["pass"] is False and err == ""


def test_incidence_classics():
    p = 3
    zero = ff.FqMatrix(p, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert ff.incidence_count(zero, "in_b", "full_flag").count == oracles.q_factorial(3, p)
    # regular semisimple: exactly |W| stable flags
    reg = ff.FqMatrix(p, ((0, 0, 0), (0, 1, 0), (0, 0, 2)))
    report = ff.incidence_count(reg, "in_b", "full_flag")
    assert report.count == 6
    assert [c for c, k in report.by_cell for _ in range(k)] == [
        w for w in sorted(perms(3), key=lambda w: (oracles.inversion_count(w), w))
    ]
    # regular nilpotent: a single stable flag
    shift = ff.FqMatrix(p, ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    assert ff.incidence_count(shift, "in_b", "full_flag").count == 1


def test_incidence_partial_flag_matches_covering_degree():
    nu = ff.FqMatrix(5, ((0, 0, 0), (0, 1, 0), (0, 0, 2)))
    report = ff.incidence_count(nu, "in_p", "partial_flag", blocks=(2, 1))
    assert report.count == 3
    report_b = ff.incidence_count(nu, "in_p", "partial_flag", blocks=(1, 1, 1))
    assert report_b.count == 6


def test_incidence_validates_inputs():
    nu = ff.FqMatrix(3, ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        ff.incidence_count(nu, "in_q", "full_flag")
    with pytest.raises(ValueError):
        ff.incidence_count(nu, "in_b", "orbit_space")
    with pytest.raises(ValueError):
        ff.incidence_count(nu, "in_p", "partial_flag")


def test_incidence_refuses_in_b_on_partial_flags():
    # b is not P-stable, so the answer would depend on the representative:
    # G/P for blocks (2,) is one coset, held by 1, whose Ad(1)E_21 is not in
    # b, and by dot(s), whose Ad(dot(s)^-1)E_21 = E_12 is
    nu = ff.FqMatrix(3, ((0, 0), (1, 0)))
    s = ((0, 1), (1, 0))
    assert not ff.in_b(oracles.adjoint(ff.FqMatrix(3, ((1, 0), (0, 1))), nu))
    assert ff.in_b(oracles.adjoint(ff.FqMatrix(3, s), nu))
    for blocks in ((2,), (1, 1)):
        with pytest.raises(ValueError, match="^condition in_b needs space full_flag: b is not P-stable"):
            ff.incidence_count(nu, "in_b", "partial_flag", blocks=blocks)


def relative_position_pair(g1, g2, blocks):
    """The W/W_P position of (g1 B, g2 P): minimal representative of the
    cell of g1^{-1} g2."""
    p = g1.p
    cell, _ = ff.cell_normal_form(ff.FqMatrix(p, oracles._mat_mul_mod(oracles._inv_mod(g1.entries, p), g2.entries, p)))
    return min_rep_perm(cell, blocks)


def test_relative_position_pair_pinned_and_invariant():
    rng = random.Random(17)
    p, n, blocks = 3, 3, (2, 1)
    ident = ff.FqMatrix(p, identity_rows(n))
    for w in perms(n):
        pos = relative_position_pair(ident, ff.FqMatrix(p, oracles._perm_matrix(w)), blocks)
        assert pos == min_rep_perm(w, blocks)
    for _ in range(10):
        g1 = ff.FqMatrix(p, rand_invertible(rng, n, p))
        g2 = ff.FqMatrix(p, rand_invertible(rng, n, p))
        base = relative_position_pair(g1, g2, blocks)
        b = rand_upper_invertible(rng, n, p)
        moved = ff.FqMatrix(p, oracles._mat_mul_mod(g1.entries, b, p))
        assert relative_position_pair(moved, g2, blocks) == base


def test_charpoly_against_closed_forms():
    # 2x2: X^2 - tr X + det
    p = 3
    for flat in itertools.product(range(p), repeat=4):
        m = ((flat[0], flat[1]), (flat[2], flat[3]))
        tr = (flat[0] + flat[3]) % p
        det = (flat[0] * flat[3] - flat[1] * flat[2]) % p
        assert ff.charpoly(m, p) == (det, (-tr) % p, 1)
    # triangular: product of (X - d_i)
    m3 = ((1, 4, 0), (0, 2, 2), (0, 0, 1))
    expected = (1,)
    for d in (1, 2, 1):
        expected = ff._poly_mul(expected, ((-d) % 5, 1), 5)
    assert ff.charpoly(m3, 5) == expected


def test_charpoly_matches_laplace_expansion():
    # every matrix with n <= 2 at p <= 7 and every 3x3 matrix at p <= 3,
    # then random 4x4 and 5x5 matrices, and matrices that steer the
    # Hessenberg pivot search: a zero first subdiagonal entry (a swap), a
    # zero subcolumn (no pivot), strictly upper and block diagonal
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            if n == 3 and p > 3:
                continue
            for flat in itertools.product(range(p), repeat=n * n):
                m = tuple(flat[i * n : (i + 1) * n] for i in range(n))
                assert ff.charpoly(m, p) == oracles.charpoly_laplace(m, p), (m, p)
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        matrices = [rand_matrix(rng, 4, p) for _ in range(200)] + [rand_matrix(rng, 5, p) for _ in range(40)]
        for n in (3, 4, 5):
            for _ in range(10):
                m = [list(row) for row in rand_matrix(rng, n, p)]
                m[1][0] = 0
                m[n - 1][0] = rng.randrange(1, p)
                matrices.append(m)
                matrices.append([[0 if j <= i else x for j, x in enumerate(row)] for i, row in enumerate(m)])
                m = [list(row) for row in rand_matrix(rng, n, p)]
                for i in range(1, n):
                    m[i][0] = 0
                matrices.append(m)
                cut = rng.randrange(1, n)
                matrices.append([[x if (i < cut) == (j < cut) else 0 for j, x in enumerate(row)] for i, row in enumerate(m)])
        for m in matrices:
            assert ff.charpoly(m, p) == oracles.charpoly_laplace(m, p), (m, p)


@pytest.mark.parametrize("n, p", [(2, 5), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_cold_run_suite_inverts_each_flag_once(monkeypatch, n, p):
    # one Borel enumeration builds every point: the partial flags are its
    # points, so a cold suite builds |G/B| = [n]_p!
    clear_fforacle_caches()
    calls = []
    real = ff.FlagPoint
    monkeypatch.setattr(ff, "FlagPoint", lambda *args: calls.append(args[0]) or real(*args))
    ff.run_suite(n, p)
    assert len(calls) == oracles.q_factorial(n, p), (n, p)
    assert calls == [cell for cell, _, _ in oracles.flag_points_listwise(n, p)], (n, p)


def test_nu_sets_match_brute_sweep():
    for n, p in ((2, 2), (2, 3), (2, 5), (3, 2)):
        flags = [point.canonical_matrix.entries for point in ff.enumerate_flags(n, p)]
        assert oracles.nu_image_sets(flags, n, p, (1,) * n) == oracles.nu_sets_brute(
            flags, n, p, oracles.in_b_brute
        ), (n, p)
        for blocks in oracles.compositions(n):
            partial = [g.entries for g in ff.enumerate_partial_flags(n, p, blocks)]
            assert oracles.nu_image_sets(partial, n, p, blocks) == oracles.nu_sets_brute(
                partial, n, p, oracles.in_p_brute(blocks)
            ), (n, p, blocks)


def test_nu_checks_match_the_two_flag_sweep():
    # the kernel route (g1 = 1, one elimination per partial flag) against
    # the pairwise Ad-image sweep, rows and histograms included; about
    # 6 s, nearly all of it the sweep at (3, 3)
    start = time.perf_counter()
    for n, p in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        full = [point.canonical_matrix.entries for point in ff.enumerate_flags(n, p)]
        partial = {
            blocks: [g.entries for g in ff.enumerate_partial_flags(n, p, blocks)]
            for blocks in oracles.compositions(n)
        }
        rows = {
            (row["check"], tuple(row["params"]["blocks"]), tuple(row["params"]["w"])): (
                row["expected"], row["observed"], row["pass"]
            )
            for row in ff.run_suite(n, p, checks=["fiber_dimension", "weight_map"])
        }
        assert rows == oracles.nu_sweep_rows(n, p, full, partial), (n, p)
    assert time.perf_counter() - start < 40


def test_projected_weight_map_walk_matches_the_unprojected_walk(monkeypatch):
    # the verdicts agree; every kernel gets its own RREF, and with the
    # verdict memo cleared the walk compares the two sides at each point of
    # each distinct projected image exactly once; the comparison looks
    # both sides up as module globals, left side first
    levis, roots, rrefs = [], [], []
    real_levi, real_roots, real_rref = ff._levi_charpolys, ff._block_root_polys, ff.rref
    monkeypatch.setattr(ff, "_levi_charpolys", lambda levi, *rest: levis.append(levi) or real_levi(levi, *rest))
    monkeypatch.setattr(ff, "_block_root_polys", lambda d, *rest: roots.append(d) or real_roots(d, *rest))
    monkeypatch.setattr(ff, "rref", lambda rows, p: rrefs.append(rows) or real_rref(rows, p))
    for n, p in ((2, 7), (3, 2), (3, 3)):
        for blocks in oracles.compositions(n):
            for w in oracles.min_reps_brute(blocks):
                ff._image_agrees.cache_clear()
                kernels = list(ff._nu_kernels(w, blocks, p, True))
                # each basis as long as the fiber dimension counted from the same echelon form
                assert [len(kernel) for kernel in kernels] == list(ff._nu_kernels(w, blocks, p, False)), (n, p, blocks, w)
                assert ff.weight_map_check(blocks, w, p) == oracles.weight_map_unprojected(kernels, blocks, w, p), (
                    n, p, blocks, w
                )
                assert len(rrefs) == len(kernels), (n, p, blocks, w)
                images = {
                    frozenset(oracles.levi_projection(x, blocks, w) for x in oracles.span_points(kernel, n * n + n, p))
                    for kernel in kernels
                }
                assert Counter(zip(levis, roots)) == Counter(point for image in images for point in image), (
                    n, p, blocks, w
                )
                for calls in (levis, roots, rrefs):
                    calls.clear()


def test_fiber_dimension_small_cases():
    for blocks in ((1, 1), (2,)):
        for w in perms(2):
            if w != min_rep_perm(w, blocks):
                with pytest.raises(ValueError):
                    ff.fiber_dimension_check(w, blocks, 3)
                continue
            report = ff.fiber_dimension_check(w, blocks, 3)
            assert report.passed, (blocks, w, report)
            assert report.expected == 3 ** (3 - oracles.inversion_count(w))
            assert report.pairs > 0


def test_weight_map_small_case():
    assert ff.weight_map_check((1, 1), (1, 2), 3)
    assert ff.weight_map_check((2,), (1, 2), 2)
    with pytest.raises(ValueError):
        ff.weight_map_check((2,), (2, 1), 3)


def test_blowup_equation():
    assert ff.blowup_equation_check(3)
    assert ff.blowup_equation_check(5)
    with pytest.raises(ValueError, match="^blowup refused at n=2, p=2: needs p != 2$"):
        ff.blowup_equation_check(2)


def test_good_form_worked_example():
    b, v = ff.good_form_conjugate([[1, 5], [0, 2]])
    assert v == ((1, 0), (0, 2))
    assert b == ((1, 5), (0, 1))


def test_good_form_random_rational_and_modular():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        diag = [rng.randint(0, 2) for _ in range(n)]
        rows = [
            [diag[i] if i == j else (rng.randint(-5, 5) if j > i else 0) for j in range(n)]
            for i in range(n)
        ]
        _, v = ff.good_form_conjugate(rows)
        for i in range(n):
            for j in range(n):
                if diag[i] != diag[j]:
                    assert v[i][j] == 0
        m = ff.FqMatrix(5, tuple(tuple(x % 5 for x in row) for row in rows))
        _, vp = ff.good_form_conjugate(m)
        for i in range(n):
            for j in range(n):
                if m.entries[i][i] != m.entries[j][j]:
                    assert vp.entries[i][j] == 0


def test_good_form_exact_route_starts_with_integers():
    # integer rows stay int until a division is inexact, and give the same
    # (b, v') as the same rows given as Fractions, which take the
    # all-Fraction route; a float input still comes out as Fractions
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(0, 3) if i == j else rng.randint(-6, 6) if j > i else 0 for j in range(n)] for i in range(n)]
        assert ff.good_form_conjugate(rows) == ff.good_form_conjugate([[Fraction(x) for x in row] for row in rows]), rows
    b, v = ff.good_form_conjugate([[1, 4], [0, 3]])
    assert (b, v) == (((1, 2), (0, 1)), ((1, 0), (0, 3)))
    assert all(type(x) is int for m in (b, v) for row in m for x in row)
    b, v = ff.good_form_conjugate([[1.0, 0.5], [0.0, 3.0]])
    assert (b, v) == (((1, Fraction(1, 4)), (0, 1)), ((1, 0), (0, 3)))
    assert all(type(x) is Fraction for row in v for x in row)


def test_good_form_matches_the_fraction_reference():
    # (b, v') equal to the entry-by-entry sweep in the field itself on int,
    # Fraction, float and F_p inputs up to n = 32.  From int input an entry
    # is an int exactly when its value is whole, so every int the reference
    # returns stays an int (the reference also returns Fraction(k, 1) for a
    # whole entry an inexact division reached); from Fraction or float
    # input every entry is a Fraction
    rng = random.Random(43)
    for n in [rng.randint(1, 6) for _ in range(120)] + [16, 24, 32]:
        diag = [rng.randint(0, 3) for _ in range(n)]
        rows = [[diag[i] if i == j else rng.randint(-6, 6) if j > i else 0 for j in range(n)] for i in range(n)]
        inputs = {
            "int": rows,
            "Fraction": [[Fraction(x, rng.choice((1, 2, 3))) for x in row] for row in rows],
            "float": [[x / 4 for x in row] for row in rows],
            "F_p": ff.FqMatrix(rng.choice((2, 3, 5, 7)), rows),
        }
        for kind, v in inputs.items():
            got, want = ff.good_form_conjugate(v), oracles.good_form_fraction(v)
            assert got == want, (kind, v)
            if kind == "F_p":
                continue
            pairs = [(x, y) for m, ref in zip(got, want) for row, ref_row in zip(m, ref) for x, y in zip(row, ref_row)]
            if kind == "int":
                assert all(type(x) is (int if Fraction(x).denominator == 1 else Fraction) for x, _ in pairs), v
                assert all(type(x) is int for x, y in pairs if type(y) is int), v
            else:
                assert all(type(x) is Fraction for x, _ in pairs), (kind, v)


def test_good_form_rejects_bad_input():
    with pytest.raises(ValueError):
        ff.good_form_conjugate([[1, 0], [1, 2]])
    # a non-square rational input gets the refusal FqMatrix gives over F_p
    for rows in ([[1, 2]], [[1, 2, 3], [0, 1, 2]], [[1, 2], [0]]):
        with pytest.raises(ValueError, match="matrix must be square"):
            ff.good_form_conjugate(rows)
        with pytest.raises(ValueError, match="matrix must be square"):
            ff.FqMatrix(5, rows)
        with pytest.raises(ValueError, match="matrix must be square"):
            ff.charpoly(rows, 5)


def test_ad_basis_images_match_the_conjugated_basis():
    # dot(w)^{-1} E_ab dot(w) by two matrix products has a single entry,
    # at the index map's position
    for n in (1, 2, 3, 4):
        for w in perms(n):
            pm = oracles._perm_matrix(w)
            pmi = oracles._perm_matrix(oracles.inverse(w))
            supports = set()
            for a, b in itertools.combinations_with_replacement(range(n), 2):
                basis = [[int((i, j) == (a, b)) for j in range(n)] for i in range(n)]
                m = oracles._mat_mul_mod(pmi, oracles._mat_mul_mod(basis, pm, 2), 2)
                support = [(i, j) for i in range(n) for j in range(n) if m[i][j]]
                assert len(support) == 1, (w, (a, b), m)
                supports |= set(support)
            assert ff._ad_basis_images(w) == supports, w


def test_shortest_element_fq_sweep_n2():
    for p in (2, 3, 5):
        for blocks in ((1, 1), (2,)):
            for w in perms(2):
                assert ff.shortest_element_fq_check(w, blocks, p), (w, blocks, p)


def test_shortest_element_fq_spot_n3():
    assert ff.shortest_element_fq_check((2, 3, 1), (2, 1), 2)
    assert ff.shortest_element_fq_check((2, 1, 3), (2, 1), 2)
    assert ff.shortest_element_fq_check((3, 1, 2), (1, 2), 2)


def test_shortest_element_fq_matches_brute_sweep():
    for n in (1, 2, 3):
        for p in (2, 3):
            for blocks in oracles.compositions(n):
                for w in perms(n):
                    assert ff.shortest_element_fq_check(
                        w, blocks, p
                    ) == oracles.shortest_element_fq_brute(w, blocks, p), (w, blocks, p)


def test_shortest_element_fq_flags_a_wrong_representative(monkeypatch):
    # Declaring every w minimal must make the check fail exactly where w
    # is not minimal, in agreement with the brute sweep fed the same lie.
    monkeypatch.setattr(ff, "min_rep_perm", lambda w, blocks: w)
    assert ff.shortest_element_fq_check((2, 1), (2,), 2) is False
    assert ff.shortest_element_fq_check((1, 2), (2,), 2) is True
    for blocks in oracles.compositions(3):
        for w in perms(3):
            expected = w == oracles.min_coset_rep_brute(w, blocks)
            brute = oracles.shortest_element_fq_brute(w, blocks, 2, min_rep=lambda w, b: w)
            assert ff.shortest_element_fq_check(w, blocks, 2) == brute == expected, (w, blocks)


def test_covering_degree_pinned():
    assert ff.covering_degree_check((2, 1), 3) == {
        "expected": 3,
        "observed": 3,
        "pass": True,
    }
    assert ff.covering_degree_check((1, 1, 1), 5)["observed"] == 6
    with pytest.raises(ValueError):
        ff.covering_degree_check((2, 1), 2)


def test_check_bounds_caps(monkeypatch):
    # one cap on |G/B| = [n]_p! <= 30,000 and none on p alone: (3, 11) has 1,464 flags
    monkeypatch.delenv(ff.ENV_MAX_FLAGS, raising=False)
    for n, p in ((3, 7), (3, 11), (4, 3), (4, 5), (5, 2)):
        ff.check_bounds(n, p)
    for n, p in ((4, 7), (5, 3), (6, 2)):
        with pytest.raises(ValueError, match=f"n={n}, p={p} .*enumeration cap.*30000.*WEYLFLAGS_FF_MAX_FLAGS"):
            ff.check_bounds(n, p)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be at least 1"):
            ff.check_bounds(n, 2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="enumeration cap"):
        ff.check_bounds(10**6, 2)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="p must be a prime, got 4"):
        ff.check_bounds(3, 4)


def test_a_huge_p_is_refused_before_trial_division():
    # 2^61 - 1 is prime, and trial division would take 1.5*10^9 divisions
    p = 2**61 - 1
    for call in (lambda: ff.FqMatrix(p, ((1,),)), lambda: ff.check_bounds(1, p)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^p=2305843009213693951 refused: primality cost sqrt\(p\) trial divisions > 1000000$"):
            call()
        assert time.perf_counter() - start < 0.1
    # at most 10^6 divisions decide the largest prime below 10^12, and 10^12 + 1 = 73 * 137 * 99990001
    assert ff.FqMatrix(999999999989, ((-1,),)).entries == ((999999999988,),)
    with pytest.raises(ValueError, match="p must be a prime"):
        ff.check_bounds(1, 10**12 + 1)


def test_check_bounds_env_override(monkeypatch):
    monkeypatch.setenv(ff.ENV_MAX_FLAGS, "300000")
    for n, p in ((4, 7), (5, 3)):
        with pytest.warns(UserWarning):
            ff.check_bounds(n, p)


def test_check_bounds_names_a_bad_cap(monkeypatch):
    monkeypatch.setenv(ff.ENV_MAX_FLAGS, "abc")
    with pytest.raises(ValueError, match="WEYLFLAGS_FF_MAX_FLAGS.*'abc'"):
        ff.check_bounds(2, 3)


def test_run_suite_all_green_small():
    rows = ff.run_suite(2, 3)
    assert rows
    assert all(row["pass"] for row in rows)
    assert not any(row.get("skipped") for row in rows)
    names = {row["check"] for row in rows}
    assert names == set(ff.SUITE_CHECKS)


def test_run_suite_skips_when_preconditions_fail():
    rows = ff.run_suite(2, 2)
    blowup_rows = [r for r in rows if r["check"] == "blowup"]
    assert len(blowup_rows) == 1
    assert blowup_rows[0].get("skipped") is True
    assert blowup_rows[0]["pass"] is True
    with pytest.raises(ValueError):
        ff.run_suite(2, 2, checks=["blowup"])
    with pytest.raises(ValueError):
        ff.run_suite(2, 3, checks=["point_counting"])


def test_run_suite_skip_notes_name_cost_and_gate():
    rows = {row["check"]: row for row in ff.run_suite(4, 3, checks=None) if row.get("skipped")}
    assert set(rows) == {"covering_degree", "fiber_dimension", "weight_map"}
    # dim b = 10 times sum_P |G/P|, and p^dim b times sum_P |W/W_P|
    compositions = oracles.compositions(4)
    gp = sum(oracles.gl_order(4, 3) // oracles.parabolic_order(blocks, 3) for blocks in compositions)
    wp = sum(len(oracles.min_reps_brute(blocks)) for blocks in compositions)
    costs = {"fiber_dimension": 10 * gp, "weight_map": 3 ** 10 * wp}
    assert costs == {"fiber_dimension": 38510, "weight_map": 4428675}
    for name, cost in costs.items():
        assert rows[name]["observed"] == f"skipped: nu sweep cost {cost} > {ff.NU_SWEEP_GATE}"


@pytest.mark.parametrize(
    "name, n, p, reason",
    [
        # 10 * (2080 + 3 * 520 + 130 + 2 * 40 + 1)
        ("fiber_dimension", 4, 3, "nu sweep cost 38510 > 10000"),
        # 5^6 * 13 and 2^10 * 75
        ("weight_map", 3, 5, "nu sweep cost 203125 > 10000"),
        ("weight_map", 4, 2, "nu sweep cost 76800 > 10000"),
        ("covering_degree", 3, 2, "needs p >= n"),
        ("blowup", 2, 2, "needs p != 2"),
        # past the flag cap the flag checks go, and the nu checks go by it first
        ("point_count", 9, 2, "flag count [n]_p! > 30000; WEYLFLAGS_FF_MAX_FLAGS raises it"),
        ("fiber_dimension", 9, 2, "flag count [n]_p! > 30000; WEYLFLAGS_FF_MAX_FLAGS raises it"),
        ("shortest_element", 8, 2, "mask pair cost n!*2^(n-1) > 322560"),
        ("good_form", 33, 3, "entry update cost 60*n^3 > 1966080"),
        # 41^4 = 2,825,761 points, about 2.8 s
        ("blowup", 2, 41, "point cost p^4 > 2500000"),
    ],
)
def test_run_suite_refusals_name_the_reason(name, n, p, reason):
    with pytest.raises(ValueError) as info:
        ff.run_suite(n, p, checks=[name])
    assert str(info.value) == f"{name} refused at n={n}, p={p}: {reason}"
    # the same reason is the skip note of --suite all
    rows = [row for row in ff.run_suite(n, p) if row["check"] == name]
    assert [row["observed"] for row in rows] == [f"skipped: {reason}"]


def test_nu_sweep_checks_refuse_over_the_gate_from_the_library():
    # in a subprocess, so a check that ignores the gate fails by timeout
    # instead of stalling the suite
    src = os.path.dirname(os.path.dirname(ff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from weylflags import fforacle as ff\n"
        "for call in (lambda: ff.weight_map_check((1, 1, 1), (1, 2, 3), 5),\n"
        "             lambda: ff.fiber_dimension_check((1, 2, 3, 4), (1, 1, 1, 1), 3)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    # the same text as run_suite's refusal of the named check
    assert proc.stdout.splitlines() == [
        f"weight_map refused at n=3, p=5: nu sweep cost 203125 > {ff.NU_SWEEP_GATE}",
        f"fiber_dimension refused at n=4, p=3: nu sweep cost 38510 > {ff.NU_SWEEP_GATE}",
    ], proc.stderr


FLAG_NOTE = "skipped: flag count [n]_p! > 30000; WEYLFLAGS_FF_MAX_FLAGS raises it"


@pytest.mark.parametrize(
    "n, p, ran",
    [
        (6, 2, ["shortest_element", "good_form"]),
        (4, 7, ["shortest_element", "blowup", "good_form"]),
        (5, 3, ["shortest_element", "blowup", "good_form"]),
    ],
)
def test_run_suite_past_the_flag_cap_runs_the_flag_free_checks(monkeypatch, n, p, ran):
    monkeypatch.delenv(ff.ENV_MAX_FLAGS, raising=False)
    rows = ff.run_suite(n, p)
    assert [row["check"] for row in rows if not row.get("skipped")] == ran
    assert all(row["pass"] for row in rows)
    notes = {row["check"]: row["observed"] for row in rows if row.get("skipped")}
    covering = "skipped: needs p >= n" if p < n else FLAG_NOTE
    flag_checks = ("point_count", "incidence_zero", "fiber_dimension", "weight_map")
    assert notes == {**dict.fromkeys(flag_checks, FLAG_NOTE), "covering_degree": covering} | (
        {"blowup": "skipped: needs p != 2"} if p == 2 else {}
    )
    with pytest.raises(ValueError, match=f"point_count refused at n={n}, p={p}: .*WEYLFLAGS_FF_MAX_FLAGS"):
        ff.run_suite(n, p, checks=["point_count"])


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_each_cost_counts_the_work_it_names(monkeypatch, n, p):
    flags = math.prod(ff._q_integers(n, p))
    assert flags == len(ff.enumerate_flags(n, p))
    fiber = n * (n + 1) // 2 * sum(len(ff.enumerate_partial_flags(n, p, blocks)) for blocks in oracles.compositions(n))
    assert ff._fiber_cost(n, p) == fiber
    # the rows look the mask comparison up as a module global, so the wrapper sees every call
    calls = []
    real = ff._masks_decide
    monkeypatch.setattr(ff, "_masks_decide", lambda *args: calls.append(args) or real(*args))
    ff.run_suite(n, p, checks=["shortest_element"])
    pairs = math.factorial(n) * 2 ** (n - 1)
    assert pairs == len(calls)
    # and each refusal turns on exactly past that cost
    def admitted(name):
        return ff._CHECKS[name][0](n, p) is None

    monkeypatch.setenv(ff.ENV_MAX_FLAGS, str(flags))
    assert admitted("point_count")
    monkeypatch.setenv(ff.ENV_MAX_FLAGS, str(flags - 1))
    assert not admitted("point_count")
    monkeypatch.delenv(ff.ENV_MAX_FLAGS)
    gates = [("shortest_element", "MASK_PAIR_GATE", pairs), ("fiber_dimension", "NU_SWEEP_GATE", fiber)]
    for name, gate, cost in gates + ([("blowup", "BLOWUP_GATE", p**4)] if p > 2 else []):
        monkeypatch.setattr(ff, gate, cost)
        assert admitted(name)
        monkeypatch.setattr(ff, gate, cost - 1)
        assert not admitted(name)


@pytest.mark.parametrize("n, p", [(4, 2), (3, 3)])
def test_run_suite_admits_each_check_once(monkeypatch, n, p):
    # run_suite decides each check by its refusal before its rows run; the
    # rows run their checks past the gate, so only the two that call a
    # public check, point_count_identity and blowup_equation_check, admit
    # (n, p), once each (blowup is skipped at p = 2)
    calls = Counter()
    real = ff._admit
    monkeypatch.setattr(ff, "_admit", lambda check, *args: calls.update([check]) or real(check, *args))
    ff.run_suite(n, p)
    assert calls == Counter(["point_count"] + (["blowup"] if p != 2 else [])), calls


def test_every_public_check_refuses_a_huge_rank_at_once():
    # each check's own gate refuses, multiplied out lazily, before any work
    # that grows with the rank; in a subprocess, so a check that lacks its
    # gate fails by timeout instead of stalling the suite
    src = os.path.dirname(os.path.dirname(ff.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEYLFLAGS_")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = (
        "import time\n"
        "from weylflags import fforacle as ff\n"
        "w, blocks = tuple(range(100_000, 0, -1)), (100_000,)\n"
        "for call in (lambda: ff.point_count_identity(10**6, 2),\n"
        "             lambda: ff.shortest_element_fq_check(w, blocks, 2),\n"
        "             lambda: ff.covering_degree_check((10**6,), 7),\n"
        "             lambda: ff.fiber_dimension_check(w, blocks, 2),\n"
        "             lambda: ff.weight_map_check(blocks, w, 2)):\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(time.perf_counter() - start, str(exc).split(' refused at ')[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20)
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [name for _, name in lines] == [
        "point_count", "shortest_element", "covering_degree", "fiber_dimension", "weight_map"
    ], proc.stderr
    assert all(float(seconds) < 0.1 for seconds, _ in lines), lines


def test_run_suite_refuses_an_empty_selection():
    with pytest.raises(ValueError, match="no checks selected"):
        ff.run_suite(2, 3, checks=[])


def test_run_suite_refuses_a_check_named_twice():
    with pytest.raises(ValueError, match="check 'point_count' selected twice"):
        ff.run_suite(2, 3, checks=["point_count", "blowup", "point_count"])


def test_run_suite_rows_match_the_recorded_stream():
    # every row of run_suite at four (n, p), skip rows included, recorded
    # in JSON form (what ff-verify prints): any change to a row shows here
    path = os.path.join(os.path.dirname(__file__), "fixtures", "run_suite_rows.json")
    with open(path) as handle:
        recorded = json.load(handle)
    for key, rows in recorded.items():
        n, p = map(int, key.split(","))
        assert json.loads(json.dumps(ff.run_suite(n, p))) == rows, key


def incidence_by_adjoint(nu, condition, space, blocks=None):
    """incidence_count's answer, re-inverting every flag through adjoint
    and testing membership with the oracle predicates."""
    test = oracles.in_b_brute if condition == "in_b" else oracles.in_p_brute(blocks)
    full = space == "full_flag"
    points = ff.enumerate_flags(nu.n, nu.p) if full else ff._flags(nu.n, nu.p, blocks)
    witnesses, by_cell = [], {}
    for point in points:
        g = point.canonical_matrix
        if test(oracles.adjoint(g, nu)):
            witnesses.append(point)
            cell = point.cell if full else min_rep_perm(oracles.bruhat_cell_rank_profile(g.entries, g.p), blocks)
            by_cell[cell] = by_cell.get(cell, 0) + 1
    return len(witnesses), tuple(witnesses), sorted(by_cell.items(), key=lambda kv: (oracles.inversion_count(kv[0]), kv[0]))


def structured_nus(rng, n, p):
    """zero, diag(0..n-1), each E_ab, the strictly upper all-ones matrix and
    a random matrix with one zero column: the columns of nu·g that come
    out zero, which random nu almost never gives, and their skip"""
    yield tuple((0,) * n for _ in range(n))
    yield tuple(tuple(i % p if i == j else 0 for j in range(n)) for i in range(n))
    for a, b in itertools.product(range(n), repeat=2):
        yield tuple(tuple(int((i, j) == (a, b)) for j in range(n)) for i in range(n))
    yield tuple(tuple(int(j > i) for j in range(n)) for i in range(n))
    k = rng.randrange(n)
    yield tuple(tuple(0 if j == k else x for j, x in enumerate(row)) for row in rand_matrix(rng, n, p))


def test_incidence_count_matches_the_full_product_reference():
    # every condition in every space it is defined on (in_b only on full
    # flags), against whole products nu·g: random
    # nu at (3, 3) and (4, 2), and the structured nu at every grid point
    # with the blocks taken in turn
    rng = random.Random(41)
    cases = []
    for n, p in ((3, 3), (4, 2)):
        for _ in range(4):
            cases.append((ff.FqMatrix(p, rand_matrix(rng, n, p)), rng.choice(oracles.compositions(n))))
    for n, p in GRID:
        compositions = oracles.compositions(n)
        for k, entries in enumerate(structured_nus(rng, n, p)):
            cases.append((ff.FqMatrix(p, entries), compositions[k % len(compositions)]))
    for nu, blocks in cases:
        n, p = nu.n, nu.p
        for condition, space in (("in_b", "full_flag"), ("in_p", "full_flag"), ("in_p", "partial_flag")):
            zeros = ff._zero_positions(blocks if condition == "in_p" else (1,) * n)
            table = flag_table(n, p, (1,) * n if space == "full_flag" else blocks)
            report = ff.incidence_count(nu, condition, space, blocks=blocks)
            reference = oracles.incidence_full_product(nu.entries, p, table, zeros)
            assert report == reference, (n, p, nu, blocks, condition, space)


def test_incidence_count_matches_adjoint_route():
    rng = random.Random(11)
    for n, p in ((3, 2), (3, 3), (4, 2)):
        nus = [ff.FqMatrix(p, tuple(tuple(0 for _ in range(n)) for _ in range(n)))]
        nus += [ff.FqMatrix(p, tuple(tuple(int(i == j) * (i % p) for j in range(n)) for i in range(n)))]
        nus += [ff.FqMatrix(p, rand_matrix(rng, n, p)) for _ in range(2)]
        blocks = (2,) + (1,) * (n - 2)
        for nu in nus:
            for args in (
                ("in_b", "full_flag"),
                ("in_p", "full_flag", blocks),
                ("in_p", "partial_flag", blocks),
            ):
                report = ff.incidence_count(nu, *args)
                count, witnesses, by_cell = incidence_by_adjoint(nu, *args)
                assert report.count == count, (n, p, args)
                assert report.witnesses == witnesses
                assert list(report.by_cell) == by_cell
