import itertools

import pytest

import oracles
from weylflags import cli, companion, cosets, roots, steinberg, weyl
from weylflags.cosets import CosetRep


def perms(n):
    return map(tuple, itertools.permutations(range(1, n + 1)))


def specs(n):
    return [{"t": blocks} for blocks in oracles.compositions(n)]


def test_root_space_translation_matches_hand_count():
    # Ad(w)m_P n u for w = (2, 3, 1), P = (2, 1): w(R_P) = {e_2 - e_3, ...};
    # Q = (3,) has n_Q = 0, so all of it is defect
    w = {"t": (2, 3, 1)}
    pspec = {"t": (2, 1)}
    assert oracles.defect_roots(w, pspec, {"t": (3,)}) == {roots.Root("t", 2, 3)}
    assert steinberg.z_dimension_defect(w, pspec, {"t": (3,)}) == 1


def test_levi_cap_u_in_nQ_is_double_coset_invariant():
    for n in (2, 3):
        for pspec in specs(n):
            for qspec in specs(n):
                for w in perms(n):
                    base = steinberg.levi_cap_u_in_nQ({"t": w}, pspec, qspec)
                    dc = oracles.double_coset(qspec["t"], w, pspec["t"])
                    for rep in dc:
                        assert (
                            steinberg.levi_cap_u_in_nQ({"t": rep}, pspec, qspec) == base
                        ), (w, rep, pspec, qspec)


def test_z_dimension_defect_zero_iff_contained():
    for pspec in specs(3):
        for qspec in specs(3):
            for w in perms(3):
                mw = {"t": w}
                assert (steinberg.z_dimension_defect(mw, pspec, qspec) == 0) == (
                    steinberg.levi_cap_u_in_nQ(mw, pspec, qspec)
                )


def test_z_dimension_defect_matches_levi_root_count():
    # dim(u n Ad(w)m_P) - dim(n_Q n Ad(w)m_P): each pair +-(i, j) of R_P
    # has one positive image, which lies in n_Q iff it crosses Q-blocks
    for n in (1, 2, 3, 4):
        for pblocks in oracles.compositions(n):
            for qblocks in oracles.compositions(n):
                q_levi = oracles.levi_positive_roots(qblocks)
                for w in perms(n):
                    in_u = {
                        tuple(sorted((w[i - 1], w[j - 1])))
                        for i, j in oracles.levi_positive_roots(pblocks)
                    }
                    expected = len(in_u) - len(in_u - q_levi)
                    mw, pspec, qspec = {"t": w}, {"t": pblocks}, {"t": qblocks}
                    got = steinberg.z_dimension_defect(mw, pspec, qspec)
                    assert got == expected == len(oracles.defect_roots(mw, pspec, qspec)), (w, pblocks, qblocks)


def test_z_dimension_defect_sums_over_labels():
    pspec, qspec = {"a": (2, 1), "b": (2,)}, {"a": (1, 2), "b": (2,)}
    for wa in perms(3):
        for wb in perms(2):
            w = {"a": wa, "b": wb}
            got = steinberg.z_dimension_defect(w, pspec, qspec)
            assert got == len(oracles.defect_roots(w, pspec, qspec)), w


def _route_cases():
    """(P, Q) for every pair of specs of rank 3 and 4 at one label, and
    for one two-label P against every two-label Q of the same shape."""
    for n in (3, 4):
        for pspec in specs(n):
            for qspec in specs(n):
                yield pspec, qspec
    pspec = {"a": (2, 1), "b": (1, 1)}
    for qa in oracles.compositions(3):
        for qb in oracles.compositions(2):
            yield pspec, {"a": qa, "b": qb}


def test_component_routes_agree_and_ignore_choice_of_h():
    for pspec, qspec in _route_cases():
        witness = roots.p_regular_witness(pspec)
        hs = [witness, {tau: tuple(5 * x - 7 for x in v) for tau, v in witness.items()}]
        for coset in cosets.enumerate_quotient(pspec):
            via_roots = steinberg.component_in_ZQP_roots(coset, pspec, qspec)
            answers = {steinberg.component_in_ZQP(coset, pspec, qspec, h) for h in hs}
            assert answers == {via_roots}, (coset, pspec, qspec)


def test_component_routes_refuse_a_spec_other_than_the_cosets():
    # the root route used to answer False here and the dominance route True
    borel = {"t": (1, 1, 1)}
    coset = CosetRep({"t": (1, 2, 3)}, borel)
    pspec = {"t": (2, 1)}
    with pytest.raises(ValueError, match="lives in W/W_P for blocks"):
        steinberg.component_in_ZQP_roots(coset, pspec, borel)
    with pytest.raises(ValueError, match="lives in W/W_P for blocks"):
        steinberg.component_in_ZQP(coset, pspec, borel, roots.p_regular_witness(pspec))


def test_component_in_ZQP_rejects_bad_h():
    pspec = {"t": (2, 1)}
    coset = CosetRep({"t": (1, 2, 3)}, pspec)
    with pytest.raises(ValueError):
        steinberg.component_in_ZQP(coset, pspec, pspec, {"t": (0, 0, 0)})
    with pytest.raises(ValueError):
        # P-regular for the wrong parabolic
        steinberg.component_in_ZQP(coset, pspec, pspec, {"t": (0, 1, 2)})


def test_full_flag_components_against_dominance_sweep():
    for n in (2, 3):
        borel = {"t": (1,) * n}
        h = {"t": tuple(range(n))}
        for qspec in specs(n):
            listed = steinberg.steinberg_components_full_flag(qspec)
            swept = [
                {"t": w}
                for w in perms(n)
                if roots.dominance(roots.act({"t": w}, h), qspec)
            ]
            assert sorted(listed, key=weyl.sort_key) == sorted(swept, key=weyl.sort_key)
            assert len(listed) == len(oracles.all_perms(n)) // len(
                oracles.wp_elements(qspec["t"])
            )
            for w in listed:
                assert steinberg.component_in_ZQP_roots(
                    CosetRep(w, borel), borel, qspec
                )


def test_components_through_point_is_interval_membership():
    pspec = {"t": (2, 1)}
    bottom = CosetRep({"t": (1, 2, 3)}, pspec)
    top = CosetRep({"t": (3, 2, 1)}, pspec)
    assert steinberg.components_through_point(bottom, top)
    assert not steinberg.components_through_point(top, bottom)


def test_minimal_parabolic_merges_one_pair():
    spec = steinberg.minimal_parabolic({"a": 4, "b": 2}, roots.Root("a", 2, 3))
    assert spec == {"a": (1, 2, 1), "b": (1, 1)}


def test_find_induction_step_postconditions():
    for n in (2, 3, 4):
        for pspec in specs(n):
            h = roots.p_regular_witness(pspec)
            top_lg = cosets.lg_P(weyl.multi_longest({"t": n}), pspec)
            for coset in cosets.enumerate_quotient(pspec):
                if coset.lg == top_lg:
                    with pytest.raises(ValueError):
                        steinberg.find_induction_step(coset, pspec, h)
                    continue
                step = steinberg.find_induction_step(coset, pspec, h)
                assert step.w_from == coset
                assert step.w_to.lg == coset.lg + 1
                assert cosets.quotient_leq(step.w_from, step.w_to)
                moved = roots.act(step.w_to.rep, h)
                assert roots.dominance(moved, step.Q)
                assert not roots.dominance(roots.act(coset.rep, h), step.Q)


def test_component_lists_keep_sort_key_order():
    # against the body the per-label listing replaced: a multi_compose per
    # element, then a sort by (length, weyl.freeze)
    qspecs = oracles.listing_specs() + [{"a": (1, 2), "b": (2, 1)}, {"a": (1, 1, 1), "b": (1, 1)}]
    for qspec in qspecs:
        comps = steinberg.steinberg_components_full_flag(qspec)
        reference = oracles.steinberg_components_full_flag(qspec)
        assert comps == reference == sorted(reference, key=weyl.sort_key), qspec
        assert all(list(w) == sorted(qspec) for w in comps), qspec
        assert cli._json(comps) == cli._json([oracles.perm_to_json(w) for w in reference]), qspec


def test_listings_check_shapes_once_per_listing(monkeypatch):
    # a shape check per element (weyl.multi_compose, roots.act) would
    # count |W/W_Q| at each rank; roots imports check_shapes by name
    calls = []
    check = weyl.check_shapes

    def counted(a, b):
        calls.append(1)
        return check(a, b)

    monkeypatch.setattr(weyl, "check_shapes", counted)
    monkeypatch.setattr(roots, "check_shapes", counted)
    refinement = companion.RefinementSpec((companion.PlaceRefinement("v", 3, ("t",), ("x",)),))
    counts = []
    for n in (2, 6):
        calls.clear()
        assert steinberg.steinberg_components_full_flag({"t": (1,) * n})
        counts.append(len(calls))
        h = {"t": (0,) * (n - 2) + (1, 2)}
        bottom = CosetRep(weyl.multi_identity({"t": n}), companion.hodge_spec(h))
        calls.clear()
        assert len(companion.companion_set(refinement, h, bottom)) == n * (n - 1)
        counts.append(len(calls))
    assert counts[:2] == counts[2:] and max(counts) <= 2, counts


def test_routes_check_each_spec_once_and_split_roots_once_per_spec(monkeypatch):
    # check_spec as the routes see it (steinberg, roots); the double-coset
    # route reads it through cosets and is not counted
    calls = []
    check = roots.check_spec

    def counted(spec, shape=None):
        calls.append(1)
        return check(spec, shape)

    monkeypatch.setattr(steinberg, "check_spec", counted)
    monkeypatch.setattr(roots, "check_spec", counted)
    roots._delta_split.cache_clear()
    pspecs, qspecs = [{"t": (2, 1)}, {"t": (1, 2)}], [{"t": (2, 1)}, {"t": (3,)}]
    for pspec in pspecs:
        h = roots.p_regular_witness(pspec)
        for qspec in qspecs:
            for coset in cosets.enumerate_quotient(pspec):
                calls.clear()
                steinberg.component_in_ZQP_roots(coset, pspec, qspec)
                assert len(calls) == 2
                calls.clear()
                steinberg.component_in_ZQP(coset, pspec, qspec, h)
                assert len(calls) == 2
    # three distinct specs among P and Q, each split into Delta_P and the rest once
    assert roots._delta_split.cache_info().misses == 3
