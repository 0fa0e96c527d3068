"""Acceptance gate: one test per numbered criterion, exact checks only.

Each test prints one `criterion NN PASS/FAIL (elapsed)` line (visible with
pytest -s) and enforces the stated time budget where one exists.  Sweeps
are exhaustive over the stated ranges; nothing is sampled down.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction

import pytest

import oracles
from weylflags import companion, cosets, fforacle, jsonio, roots, steinberg, weyl
from weylflags.companion import PlaceRefinement, RefinementSpec
from weylflags.cosets import CosetRep


@contextlib.contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        over = budget is not None and elapsed >= budget
        tag = "FAIL" if failed or over else "PASS"
        print(f"criterion {number:02d} {tag} ({elapsed:.3f}s): {description}", flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.3f}s, budget {budget}s"


def perms(n):
    return [tuple(w) for w in itertools.permutations(range(1, n + 1))]


def specs(n):
    return [{"t": blocks} for blocks in oracles.compositions(n)]


def test_criterion_01_dot_action_data_point():
    lam, spec = companion.weights_from_hodge({"t": (1, 1, 2)})
    assert lam == {"t": (2, 2, 3)}
    assert spec == {"t": (2, 1)}
    s1 = {"t": (2, 1, 3)}
    w0 = {"t": (3, 2, 1)}
    roots.dot_act(s1, lam)  # warm the code path before timing
    with criterion(1, "dot action s.(2,2,3)=(1,3,3), w0.(2,2,3)=(1,2,4)", budget=0.001):
        assert roots.dot_act(s1, lam) == {"t": (1, 3, 3)}
        assert roots.dot_act(w0, lam) == {"t": (1, 2, 4)}


def five_routes(w, blocks):
    """Items (1)-(5) of the shortest-element equivalence, each computed
    along its own code path."""
    mw = {"t": w}
    spec = {"t": blocks}
    shape = {"t": len(w)}
    levi_plus = oracles.levi_plus(spec)
    membership = cosets.min_rep(mw, spec) == mw
    adjoint_symbolic = not any(
        roots.act_root(mw, beta.negate()).positive for beta in levi_plus
    )
    no_levi_inversions = not (roots.inversion_set(mw) & levi_plus)
    image_positive = all(roots.act_root(mw, alpha).positive for alpha in levi_plus)
    positive = frozenset(roots.positive_roots(shape))
    translated_in_u = {roots.act_root(mw, a) for a in oracles.levi_roots(spec) & positive} <= positive
    return (
        membership,
        adjoint_symbolic,
        no_levi_inversions,
        image_positive,
        translated_in_u,
    )


def test_criterion_02_five_way_shortest_element_equivalence():
    with criterion(2, "five-way W^P equivalence n<=4 + F_p item (2) n<=3", budget=60):
        for n in (1, 2, 3, 4):
            for blocks in oracles.compositions(n):
                for w in perms(n):
                    answers = five_routes(w, blocks)
                    assert len(set(answers)) == 1, (w, blocks, answers)
                    assert answers[0] == (
                        w == oracles.min_coset_rep_brute(w, blocks)
                    ), (w, blocks)
                    # closing length formula of the same lemma
                    assert cosets.lg_P({"t": w}, {"t": blocks}) == len(
                        roots.inversion_set({"t": w}) - oracles.levi_plus({"t": blocks})
                    )
        for n in (1, 2, 3):
            for p in (2, 3):
                for blocks in oracles.compositions(n):
                    for w in perms(n):
                        assert fforacle.shortest_element_fq_check(w, blocks, p), (
                            w,
                            blocks,
                            p,
                        )


def three_regular_h(blocks):
    """Three P-regular antidominant coweights with unrelated gap patterns."""
    out = []
    for base, gaps in ((-4, [1, 1, 1, 1]), (0, [1, 2, 4, 8]), (7, [3, 1, 2, 5])):
        vec = []
        value = base
        for size, gap in zip(blocks, itertools.chain(gaps, itertools.repeat(1))):
            vec.extend([value] * size)
            value += gap
        out.append({"t": tuple(vec)})
    return out


def test_criterion_03_root_criterion_vs_strict_dominance():
    with criterion(3, "root-set criterion == strict Q-dominance, n<=4, 3 h each", budget=120):
        for n in (1, 2, 3, 4):
            for pspec in specs(n):
                hs = three_regular_h(pspec["t"])
                assert len({tuple(h["t"]) for h in hs}) == 3
                for h in hs:
                    assert roots.p_regular_antidominant(h, pspec)
                for qspec in specs(n):
                    for w in perms(n):
                        coset = CosetRep({"t": w}, pspec)
                        via_roots = steinberg.component_in_ZQP_roots(coset, pspec, qspec)
                        for h in hs:
                            via_h = steinberg.component_in_ZQP(coset, pspec, qspec, h)
                            assert via_roots == via_h, (w, pspec, qspec, h)


def test_criterion_04_induction_step_and_certified_walks():
    with criterion(4, "induction-step postconditions + saturated walks, n<=4", budget=60):
        for n in (1, 2, 3, 4):
            for pspec in specs(n):
                h = roots.p_regular_witness(pspec)
                quotient = cosets.enumerate_quotient(pspec)
                top = quotient[-1]
                assert top.rep == cosets.min_rep(weyl.multi_longest({"t": n}), pspec)
                for coset in quotient:
                    if coset == top:
                        with pytest.raises(ValueError):
                            steinberg.find_induction_step(coset, pspec, h)
                    else:
                        step = steinberg.find_induction_step(coset, pspec, h)
                        # (a) covering step in W/W_P
                        assert step.w_to.lg == coset.lg + 1
                        assert cosets.quotient_leq(coset, step.w_to)
                        # (b) s_alpha w(h) strictly Q-dominant
                        assert roots.dominance(roots.act(step.w_to.rep, h), step.Q)
                        # (c) w(h) not strictly Q-dominant
                        assert not roots.dominance(roots.act(coset.rep, h), step.Q)
                    cert = companion.certify_walk(coset, h)
                    assert cert.end == top
                    assert len(cert.chain) == top.lg - coset.lg
                    cur = coset
                    for step in cert.chain:
                        assert step.w_from == cur
                        assert step.w_to.lg == cur.lg + 1
                        cur = step.w_to
                    assert cur == top


def test_criterion_05_full_flag_steinberg_component_list():
    with criterion(5, "full-flag component list vs predicate set, n<=3"):
        for n in (1, 2, 3):
            borel = {"t": (1,) * n}
            h = {"t": tuple(range(n))}
            for qspec in specs(n):
                by_predicate = {
                    w
                    for w in perms(n)
                    if steinberg.component_in_ZQP(
                        CosetRep({"t": w}, borel), borel, qspec, h
                    )
                }
                by_roots = {
                    w
                    for w in perms(n)
                    if steinberg.component_in_ZQP_roots(
                        CosetRep({"t": w}, borel), borel, qspec
                    )
                }
                listed = {
                    c["t"] for c in steinberg.steinberg_components_full_flag(qspec)
                }
                assert by_predicate == listed == by_roots, (n, qspec)
                assert len(listed) == len(perms(n)) // len(
                    oracles.wp_elements(qspec["t"])
                )


def test_criterion_06_fq_covering_degree():
    with criterion(6, "split regular nu meets |W/W_P| partial flags, n<=3, p in {3,5}"):
        for n in (1, 2, 3):
            for p in (3, 5):
                for blocks in oracles.compositions(n):
                    report = fforacle.covering_degree_check(blocks, p)
                    assert report["pass"], (blocks, p, report)
                    expected = len(perms(n)) // len(oracles.wp_elements(blocks))
                    assert report["expected"] == expected


def test_criterion_07_fq_fiber_dimension():
    with criterion(7, "fiber has p^(dim b - lg_P(w)) points, n<=3, p=2"):
        for n in (1, 2, 3):
            for blocks in oracles.compositions(n):
                for w in perms(n):
                    if w != cosets.min_rep_perm(w, blocks):
                        continue
                    report = fforacle.fiber_dimension_check(w, blocks, 2)
                    assert report.passed, (w, blocks, report)
                    assert report.expected == 2 ** (
                        n * (n + 1) // 2 - oracles.inversion_count(w)
                    )


def test_criterion_08_blowup_equation():
    with criterion(8, "blow-up incidence matches 2xt + x^2 y = 0, p in {3,5}"):
        assert fforacle.blowup_equation_check(3)
        assert fforacle.blowup_equation_check(5)


def test_criterion_09_good_form_normalization():
    with criterion(9, "good form zeroes split entries, 1000 randoms over Q and F_5"):
        b, v = fforacle.good_form_conjugate([[1, 5], [0, 2]])
        assert v == ((1, 0), (0, 2))
        assert b == ((1, 5), (0, 1))
        rng = random.Random(91)
        for _ in range(1000):
            n = rng.randint(1, 4)
            diag = [rng.randint(0, 2) for _ in range(n)]
            entries = [
                [diag[i] if i == j else (rng.randint(-5, 5) if j > i else 0) for j in range(n)]
                for i in range(n)
            ]
            bq, vq = fforacle.good_form_conjugate(entries)
            for i in range(n):
                assert bq[i][i] == 1
                for j in range(n):
                    if diag[i] != diag[j]:
                        assert vq[i][j] == 0
            mod = fforacle.FqMatrix(5, tuple(tuple(x % 5 for x in row) for row in entries))
            bp, vp = fforacle.good_form_conjugate(mod)
            for i in range(n):
                assert bp.entries[i][i] == 1
                for j in range(n):
                    if mod.entries[i][i] != mod.entries[j][j]:
                        assert vp.entries[i][j] == 0


def test_criterion_10_length_splitting_statistics():
    with criterion(10, "n_I / n^I match factor lengths, all of S_4, all I"):
        for sigma in perms(4):
            for blocks in oracles.compositions(4):
                within, across = cosets.length_split_stats(sigma, blocks)
                rep, inside = cosets.decompose({"t": sigma}, {"t": blocks})
                assert within == weyl.multi_length(inside), (sigma, blocks)
                assert across == weyl.multi_length(rep), (sigma, blocks)
                assert within + across == oracles.inversion_count(sigma)


def test_criterion_11_weight_map_compatibility():
    with criterion(11, "block charpoly identity at every F_2 point, n=3, blocks (2,1)", budget=120):
        blocks = (2, 1)
        reps = [w for w in perms(3) if w == cosets.min_rep_perm(w, blocks)]
        assert len(reps) == 3
        for w in reps:
            assert fforacle.weight_map_check(blocks, w, 2), w


def test_criterion_12_companion_set_and_cover_step():
    with criterion(12, "exactly two companions with pinned twisted weights + two JH cosets"):
        h = {"t": (1, 1, 2)}
        spec = {"t": (2, 1)}
        refinement = RefinementSpec(
            (
                PlaceRefinement(
                    "v",
                    3,
                    ("t",),
                    ("phi1", "phi2", "phi3"),
                    (Fraction(1), Fraction(5), Fraction(28)),
                ),
            )
        )
        w_R = CosetRep({"t": (1, 3, 2)}, spec)
        top = CosetRep({"t": (3, 2, 1)}, spec)
        out = companion.companion_set(refinement, h, w_R)
        assert len(out) == 2
        assert [w for w, _ in out] == [w_R, top]
        assert [c.algebraic_weight for _, c in out] == [
            {"t": (1, 3, 3)},
            {"t": (2, 2, 3)},
        ]
        assert all(jsonio.character_to_json(c)["twisted"] is True for _, c in out)
        assert all(
            c.smooth_labels == (("v", ("phi1", "phi2", "phi3")),) for _, c in out
        )
        assert companion.genericity_check(refinement)
        assert top.lg == w_R.lg + 1
        ideal = companion.jordan_holder_cosets(top)
        pair = [c for c in ideal if cosets.quotient_leq(w_R, c)]
        assert pair == [w_R, top]
