import itertools
import json
import os
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from weylflags import fforacle as ff
from weylflags.cosets import min_rep_perm


def perms(n):
    return map(tuple, itertools.permutations(range(1, n + 1)))


def rand_matrix(rng, n, p):
    return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))


def rand_invertible(rng, n, p):
    while True:
        m = rand_matrix(rng, n, p)
        if ff.mat_rank(m, p) == n:
            return m


def rand_upper_invertible(rng, n, p):
    return tuple(
        tuple(
            rng.randrange(1, p) if i == j else (rng.randrange(p) if j > i else 0)
            for j in range(n)
        )
        for i in range(n)
    )


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
                inv = ff.mat_inv(m, p)
                assert ff.mat_mul(m, inv, p) == ff.mat_identity(n)
                assert ff.mat_mul(inv, m, p) == ff.mat_identity(n)
                assert ff.mat_rank(ff.rref(m, p), p) == n
    with pytest.raises(ValueError):
        ff.mat_inv(((1, 1), (1, 1)), 2)


def test_rref_is_canonical_under_row_operations():
    rng = random.Random(11)
    p, n = 3, 3
    for _ in range(25):
        m = rand_matrix(rng, n, p)
        g = rand_invertible(rng, n, p)
        assert ff.rref(ff.mat_mul(g, m, p), p) == ff.rref(m, p)


def test_perm_matrix_convention_and_homomorphism():
    # entry (i, j) of the matrix of w is 1 iff i = w(j)
    w = (2, 3, 1)
    rows = ff.perm_rows(w)
    for i in range(1, 4):
        for j in range(1, 4):
            assert rows[i - 1][j - 1] == (1 if i == w[j - 1] else 0)
    for u in perms(3):
        for v in perms(3):
            lhs = ff.perm_rows(oracles.compose(u, v))
            rhs = ff.mat_mul(ff.perm_rows(u), ff.perm_rows(v), 5)
            assert lhs == rhs


def test_cell_free_positions_count_is_length():
    for n in (2, 3, 4):
        for w in perms(n):
            free = ff.cell_free_positions(w)
            assert len(free) == oracles.inversion_count(w)
            assert len(set(free)) == len(free)


def test_bruhat_cell_of_permutation_matrices():
    for n in (2, 3, 4):
        for w in perms(n):
            assert ff.bruhat_cell_of(ff.perm_matrix(w, 2)) == w


def test_bruhat_cell_is_borel_biinvariant():
    rng = random.Random(13)
    p, n = 3, 3
    for w in perms(n):
        for _ in range(8):
            b1 = rand_upper_invertible(rng, n, p)
            b2 = rand_upper_invertible(rng, n, p)
            g = ff.mat_mul(b1, ff.mat_mul(ff.perm_rows(w), b2, p), p)
            assert ff.bruhat_cell_of(ff.FqMatrix(p, g)) == w


def test_bruhat_cell_matches_rank_profile_route():
    # every flag point, and the same coset moved by a random b in B
    rng = random.Random(29)
    for n, p in ((3, 3), (4, 2)):
        for point in ff.enumerate_flags(n, p):
            g = point.canonical_matrix.entries
            moved = ff.mat_mul(g, rand_upper_invertible(rng, n, p), p)
            for m in (g, moved):
                assert ff.bruhat_cell_of(ff.FqMatrix(p, m)) == point.cell
                assert oracles.bruhat_cell_rank_profile(m, p) == point.cell


def test_bruhat_cell_rejects_singular():
    with pytest.raises(ValueError):
        ff.bruhat_cell_of(ff.FqMatrix(3, ((1, 1), (2, 2))))


def test_flag_enumeration_counts():
    for n, p in ((2, 2), (2, 5), (3, 2), (3, 3)):
        flags = ff.enumerate_flags(n, p)
        assert len(flags) == oracles.q_factorial(n, p)
        per_cell = {}
        for point in flags:
            per_cell[point.cell] = per_cell.get(point.cell, 0) + 1
        for w in perms(n):
            assert per_cell[w] == p ** oracles.inversion_count(w)
        keys = {ff.flag_key(point.canonical_matrix) for point in flags}
        assert len(keys) == len(flags)


def test_partial_flag_enumeration_counts():
    for blocks, p in (((2, 1), 2), ((2, 1), 3), ((1, 1, 2), 2), ((2, 2), 3)):
        n = sum(blocks)
        partial = ff.enumerate_partial_flags(n, p, blocks)
        expected = oracles.gl_order(n, p) // oracles.parabolic_order(blocks, p)
        assert len(partial) == expected
        keys = {ff.partial_flag_key(g, blocks) for g in partial}
        assert len(keys) == expected


# the ff-grid points of the benchmark, and (3, 7)
GRID = ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 5), (3, 7), (4, 2), (4, 3))


def test_partial_flags_match_the_dedup_route():
    # the minimal cells give, in the same order, the first full flag of
    # each coset gP
    for n, p in GRID:
        full = [point.canonical_matrix for point in ff.enumerate_flags(n, p)]
        for blocks in oracles.compositions(n):
            assert ff.enumerate_partial_flags(n, p, blocks) == oracles.partial_flags_dedup(
                full, blocks, ff.partial_flag_key
            ), (n, p, blocks)


def test_partial_flag_points_carry_their_cell():
    for n, p in GRID:
        for blocks in oracles.compositions(n):
            for point in ff._flags_cached(n, p, blocks):
                g = point.canonical_matrix
                assert point.cell == min_rep_perm(ff.bruhat_cell_of(g), blocks), (n, p, blocks)


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
    with pytest.raises(ValueError, match="do not sum to 2"):
        ff.incidence_count(zero, "in_nQ", "full_flag", qblocks=(2, 1))


def test_shortest_element_check_refuses_non_positive_blocks():
    with pytest.raises(ValueError, match="must be positive"):
        ff.shortest_element_fq_check((2, 1, 3), (3, 0), 2)


def test_point_count_identity_pinned():
    assert ff.point_count_identity(3, 2)["enumerated"] == 21
    report = ff.point_count_identity(3, 3)
    assert report["enumerated"] == 52
    assert report["pass"] is True
    assert report["cell_sum"] == report["q_factorial"] == report["group_quotient"] == 52


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
    # nonzero semisimple is never nilpotent
    reg2 = ff.FqMatrix(3, ((0, 0), (0, 1)))
    assert ff.incidence_count(reg2, "in_u", "full_flag").count == 0


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


def test_relative_position_pair_pinned_and_invariant():
    rng = random.Random(17)
    p, n, blocks = 3, 3, (2, 1)
    ident = ff.FqMatrix(p, ff.mat_identity(n))
    for w in perms(n):
        pos = ff.relative_position_pair(ident, ff.perm_matrix(w, p), blocks)
        assert pos == min_rep_perm(w, blocks)
    for _ in range(10):
        g1 = ff.FqMatrix(p, rand_invertible(rng, n, p))
        g2 = ff.FqMatrix(p, rand_invertible(rng, n, p))
        base = ff.relative_position_pair(g1, g2, blocks)
        b = rand_upper_invertible(rng, n, p)
        moved = ff.FqMatrix(p, ff.mat_mul(g1.entries, b, p))
        assert ff.relative_position_pair(moved, g2, blocks) == base


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
    # then random 4x4 matrices
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            if n == 3 and p > 3:
                continue
            for flat in itertools.product(range(p), repeat=n * n):
                m = tuple(flat[i * n : (i + 1) * n] for i in range(n))
                assert ff.charpoly(m, p) == oracles.charpoly_laplace(m, p), (m, p)
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for _ in range(200):
            m = rand_matrix(rng, 4, p)
            assert ff.charpoly(m, p) == oracles.charpoly_laplace(m, p), (m, p)


def test_cold_run_suite_inverts_each_flag_once(monkeypatch):
    for obj in vars(ff).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    calls = []
    real = ff.mat_inv

    def counted(a, p):
        calls.append(a)
        return real(a, p)

    monkeypatch.setattr(ff, "mat_inv", counted)
    ff.run_suite(3, 2)
    flags = sum(len(ff._flags_cached(3, 2, blocks)) for blocks in oracles.compositions(3))
    assert flags == 36
    assert len(calls) == flags


def test_nu_sets_match_brute_sweep():
    for n, p in ((2, 2), (2, 3), (2, 5), (3, 2)):
        flags = [point.canonical_matrix.entries for point in ff.enumerate_flags(n, p)]
        assert list(ff._in_p_sets(n, p, (1,) * n)) == oracles.nu_sets_brute(
            flags, n, p, oracles.in_b_brute
        ), (n, p)
        for blocks in oracles.compositions(n):
            partial = [g.entries for g in ff.enumerate_partial_flags(n, p, blocks)]
            assert list(ff._in_p_sets(n, p, blocks)) == oracles.nu_sets_brute(
                partial, n, p, oracles.in_p_brute(blocks)
            ), (n, p, blocks)


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
    with pytest.raises(ValueError):
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


def test_good_form_rejects_bad_input():
    with pytest.raises(ValueError):
        ff.good_form_conjugate([[1, 0], [1, 2]])
    with pytest.raises(ValueError):
        ff.good_form_conjugate([[1, 0], [0, 2]], p=5)
    with pytest.raises(ValueError):
        ff.good_form_conjugate(ff.FqMatrix(5, ((1, 0), (0, 2))), p=3)


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


def test_check_bounds_caps():
    ff.check_bounds(3, 7)
    ff.check_bounds(4, 3)
    with pytest.raises(ValueError):
        ff.check_bounds(5, 2)
    with pytest.raises(ValueError):
        ff.check_bounds(3, 11)
    with pytest.raises(ValueError):
        ff.check_bounds(3, 4)
    with pytest.raises(ValueError):
        ff.check_bounds(4, 5)


def test_check_bounds_env_override(monkeypatch):
    monkeypatch.setenv(ff.ENV_MAX_N, "5")
    with pytest.warns(UserWarning):
        ff.check_bounds(5, 2)
    monkeypatch.setenv(ff.ENV_MAX_P, "11")
    with pytest.warns(UserWarning):
        ff.check_bounds(2, 11)


def test_check_bounds_names_a_bad_cap(monkeypatch):
    monkeypatch.setenv(ff.ENV_MAX_N, "abc")
    with pytest.raises(ValueError, match="WEYLFLAGS_FF_MAX_N.*'abc'"):
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
    assert set(rows) == {"shortest_element", "covering_degree", "fiber_dimension", "weight_map"}
    borel_cost = 3 ** 10 * 24 * 8
    assert rows["shortest_element"]["observed"] == (
        f"skipped: borel sweep cost {borel_cost} > {ff.BOREL_SWEEP_GATE}"
    )
    nu_cost = 3 ** 16 * ff.q_factorial(4, 3)
    for name in ("fiber_dimension", "weight_map"):
        assert rows[name]["observed"] == f"skipped: nu sweep cost {nu_cost} > {ff.NU_SWEEP_GATE}"


@pytest.mark.parametrize(
    "name, n, p, reason",
    [
        ("shortest_element", 4, 3, "borel sweep cost 11337408 > 3000000"),
        # 3^9 * [3]_3! = 19683 * 52
        ("fiber_dimension", 3, 3, "nu sweep cost 1023516 > 600000"),
        ("weight_map", 3, 3, "nu sweep cost 1023516 > 600000"),
        ("covering_degree", 3, 2, "needs p >= n"),
        ("blowup", 2, 2, "needs p != 2"),
    ],
)
def test_run_suite_refusals_name_the_reason(name, n, p, reason):
    with pytest.raises(ValueError) as info:
        ff.run_suite(n, p, checks=[name])
    assert str(info.value) == f"{name} refused at n={n}, p={p}: {reason}"
    # the same reason is the skip note of --suite all
    rows = [row for row in ff.run_suite(n, p) if row["check"] == name]
    assert [row["observed"] for row in rows] == [f"skipped: {reason}"]


def test_run_suite_refuses_an_empty_selection():
    with pytest.raises(ValueError, match="no checks selected"):
        ff.run_suite(2, 3, checks=[])


def test_run_suite_rows_match_the_recorded_stream():
    # every row of run_suite at four (n, p), skip rows included, recorded
    # in JSON form (what ff-verify prints): any change to a row shows here
    path = os.path.join(os.path.dirname(__file__), "fixtures", "run_suite_rows.json")
    with open(path) as handle:
        recorded = json.load(handle)
    for key, rows in recorded.items():
        n, p = map(int, key.split(","))
        assert json.loads(json.dumps(ff.run_suite(n, p))) == rows, key


def incidence_by_adjoint(nu, condition, space, blocks=None, qblocks=None):
    """incidence_count's answer, re-inverting every flag through adjoint."""
    test = ff._condition_test(condition, blocks, qblocks)
    full = space == "full_flag"
    points = ff.enumerate_flags(nu.n, nu.p) if full else ff._flags_cached(nu.n, nu.p, blocks)
    witnesses, by_cell = [], {}
    for point in points:
        g = point.canonical_matrix
        if test(oracles.adjoint(g, nu)):
            witnesses.append(point)
            cell = point.cell if full else min_rep_perm(ff.bruhat_cell_of(g), blocks)
            by_cell[cell] = by_cell.get(cell, 0) + 1
    return len(witnesses), tuple(witnesses), sorted(by_cell.items(), key=lambda kv: (oracles.inversion_count(kv[0]), kv[0]))


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
                ("in_u", "full_flag"),
                ("in_p", "full_flag", blocks),
                ("in_nQ", "full_flag", None, blocks),
                ("in_p", "partial_flag", blocks),
                ("in_b", "partial_flag", (1, n - 1)),
            ):
                report = ff.incidence_count(nu, *args)
                count, witnesses, by_cell = incidence_by_adjoint(nu, *args)
                assert report.count == count, (n, p, args)
                assert report.witnesses == witnesses
                assert list(report.by_cell) == by_cell
