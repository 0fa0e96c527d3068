import itertools

import pytest

import oracles
from weylflags import cosets, roots, steinberg, weyl
from weylflags.cosets import CosetRep


def perms(n):
    return map(tuple, itertools.permutations(range(1, n + 1)))


def test_min_rep_matches_brute_force():
    for n in (2, 3, 4):
        for blocks in oracles.compositions(n):
            for w in perms(n):
                assert cosets.min_rep_perm(w, blocks) == oracles.min_coset_rep_brute(
                    w, blocks
                ), (w, blocks)


def test_min_rep_is_idempotent_and_in_coset():
    spec = {"t": (2, 2)}
    for w in perms(4):
        mw = {"t": w}
        rep = cosets.min_rep(mw, spec)
        assert cosets.min_rep(rep, spec) == rep
        inside = weyl.multi_compose(weyl.multi_inverse(rep), mw)
        assert inside["t"] in oracles.wp_elements((2, 2))


def test_min_rep_validates_shape():
    with pytest.raises(ValueError):
        cosets.min_rep_perm((2, 1, 3), (2, 2))
    with pytest.raises(ValueError):
        cosets.min_rep({"t": (2, 1)}, {"s": (1, 1)})


def test_non_positive_blocks_are_refused():
    # (4, -1) sums to the rank 3 but is no composition
    for blocks in ((4, -1), (3, 0), (0, 3)):
        with pytest.raises(ValueError, match="must be positive"):
            cosets.min_rep_perm((3, 1, 2), blocks)
        with pytest.raises(ValueError, match="must be positive"):
            cosets.length_split_stats((3, 1, 2), blocks)
    with pytest.raises(ValueError, match="do not sum to"):
        cosets.min_rep_perm((3, 1, 2), (1, 1))


def test_decompose_is_length_additive():
    spec = {"t": (1, 2, 1)}
    for w in perms(4):
        mw = {"t": w}
        rep, inside = cosets.decompose(mw, spec)
        assert weyl.multi_compose(rep, inside) == mw
        assert cosets.min_rep(rep, spec) == rep
        assert weyl.multi_length(mw) == weyl.multi_length(rep) + weyl.multi_length(inside)


def test_lg_P_extremes():
    spec = {"t": (2, 1)}
    assert cosets.lg_P(weyl.multi_identity({"t": 3}), spec) == 0
    # longest coset: l(w_0) - l(w_{P,0})
    assert cosets.lg_P({"t": (3, 2, 1)}, spec) == 3 - 1


def test_coset_rep_normalizes_and_hashes():
    spec = {"t": (2, 1)}
    a = CosetRep({"t": (2, 1, 3)}, spec)
    b = CosetRep({"t": (1, 2, 3)}, spec)
    assert a == b
    assert hash(a) == hash(b)
    assert a.rep == {"t": (1, 2, 3)}
    assert a.lg == 0
    c = CosetRep({"t": (1, 2, 3)}, {"t": (1, 2)})
    with pytest.raises(ValueError):
        cosets.quotient_leq(a, c)


def test_enumerate_quotient_size_and_order():
    for n in (2, 3, 4):
        for blocks in oracles.compositions(n):
            spec = {"t": blocks}
            quo = cosets.enumerate_quotient(spec)
            expected = len(oracles.all_perms(n)) // len(oracles.wp_elements(blocks))
            assert len(quo) == expected
            assert len({q for q in quo}) == expected
            lgs = [q.lg for q in quo]
            assert lgs == sorted(lgs)


def test_quotient_leq_agrees_with_set_comparison_oracle():
    # u·W_P <= v·W_P iff some member of u·W_P is below v in full Bruhat
    # order; on minimal representatives that is plain Bruhat comparison.
    for blocks in oracles.compositions(3):
        spec = {"t": blocks}
        for u in perms(3):
            for v in perms(3):
                cu = CosetRep({"t": u}, spec)
                cv = CosetRep({"t": v}, spec)
                brute = any(
                    oracles.bruhat_leq_subword(oracles.compose(u, z), v)
                    for z in oracles.wp_elements(blocks)
                )
                assert cosets.quotient_leq(cu, cv) == brute, (u, v, blocks)


def test_left_min_rep_mirrors_right():
    spec = {"t": (2, 1)}
    for w in perms(3):
        mw = {"t": w}
        left = cosets.left_min_rep(mw, spec)
        mirrored = weyl.multi_inverse(
            cosets.min_rep(weyl.multi_inverse(mw), spec)
        )
        assert left == mirrored
        assert cosets.left_min_rep(left, spec) == left


def test_longest_in_levi():
    assert cosets.longest_in_levi({"t": (2, 2)}) == {"t": (2, 1, 4, 3)}
    w = cosets.longest_in_levi({"t": (3, 1)})
    assert weyl.multi_length(w) == 3


def test_shortest_double_coset_rep_brute_force():
    for n in (2, 3, 4):
        for qblocks in oracles.compositions(n):
            for pblocks in oracles.compositions(n):
                for w in perms(n):
                    got = cosets.shortest_double_coset_rep(
                        {"t": w}, {"t": qblocks}, {"t": pblocks}
                    )
                    dc = oracles.double_coset(qblocks, w, pblocks)
                    best = min(dc, key=oracles.inversion_count)
                    assert got == {"t": best}, (w, qblocks, pblocks)


def test_normalising_double_coset_route_matches_oracle():
    # every (w, Q, P) with n <= 5, against the materialized double coset
    for n in range(1, 6):
        for qblocks in oracles.compositions(n):
            for pblocks in oracles.compositions(n):
                minima = oracles.double_coset_minima(qblocks, pblocks)
                for w in perms(n):
                    got = cosets._normalize_double_coset({"t": w}, {"t": qblocks}, {"t": pblocks})
                    assert got == {"t": minima[w]}, (w, qblocks, pblocks)


def test_two_label_double_coset_rep_is_per_label():
    # the double coset is composed from W_Q x W_P only while that is
    # small; two rank-4 labels with one block each are past the bound and
    # take the normalizing route, the mixed pairs below stay exhaustive
    specs = [((4,), (4,)), ((2, 2), (1, 3)), ((1, 1, 1, 1), (2, 1, 1))]
    minima = {spec: oracles.double_coset_minima(*spec) for spec in specs}
    for (qa, pa), (qb, pb) in itertools.product(specs, repeat=2):
        for wa in list(perms(4))[::5]:
            wb = wa[::-1]
            got = cosets.shortest_double_coset_rep(
                {"a": wa, "b": wb}, {"a": qa, "b": qb}, {"a": pa, "b": pb}
            )
            assert got == {"a": minima[qa, pa][wa], "b": minima[qb, pb][wb]}, (wa, qa, pa, qb, pb)
    # three labels, and labels given out of sorted order: (Q, P) blocks per
    # label, every w, both on the exhaustive side of the bound
    for labelled in (
        {"a": ((2, 1), (1, 2)), "b": ((2, 2), (1, 3)), "c": ((2,), (1, 1))},
        {"b": ((1, 1, 1, 1), (2, 1, 1)), "a": ((3,), (2, 1))},
    ):
        qspec = {tau: q for tau, (q, _) in labelled.items()}
        pspec = {tau: p for tau, (_, p) in labelled.items()}
        assert cosets._levi_order(qspec) * cosets._levi_order(pspec) <= cosets.MAX_EXHAUSTIVE_PAIRS
        minima = {tau: oracles.double_coset_minima(q, p) for tau, (q, p) in labelled.items()}
        for parts in itertools.product(*(perms(sum(p)) for _, p in labelled.values())):
            w = dict(zip(labelled, parts))
            got = cosets.shortest_double_coset_rep(w, qspec, pspec)
            assert got == {tau: minima[tau][w[tau]] for tau in labelled}, w


def test_exhaustive_double_coset_checks_shapes_a_fixed_number_of_times(monkeypatch):
    # both specs are fitted to w once; the 120 x 24 pairs at Q = (5),
    # P = (4, 1) are then composed label by label, with no shape check
    # per pair (roots imports check_shapes by name)
    calls = []
    check = weyl.check_shapes

    def counted(a, b):
        calls.append(1)
        return check(a, b)

    monkeypatch.setattr(weyl, "check_shapes", counted)
    monkeypatch.setattr(roots, "check_shapes", counted)
    qspec, pspec = {"t": (5,)}, {"t": (4, 1)}
    assert cosets._levi_order(qspec) * cosets._levi_order(pspec) <= cosets.MAX_EXHAUSTIVE_PAIRS
    assert cosets.shortest_double_coset_rep({"t": (2, 4, 1, 5, 3)}, qspec, pspec) == {"t": (1, 2, 3, 4, 5)}
    assert len(calls) == 2


def test_length_split_stats_pinned_and_total():
    assert cosets.length_split_stats((3, 2, 1), (2, 1)) == (1, 2)
    for sigma in perms(4):
        for blocks in oracles.compositions(4):
            within, across = cosets.length_split_stats(sigma, blocks)
            assert within + across == oracles.inversion_count(sigma)
            rep, inside = cosets.decompose({"t": sigma}, {"t": blocks})
            assert within == weyl.multi_length(inside)
            assert across == weyl.multi_length(rep)


def test_length_split_stats_matches_the_pair_count():
    for n in range(1, 7):
        for blocks in oracles.compositions(n):
            for sigma in perms(n):
                assert cosets.length_split_stats(sigma, blocks) == oracles.length_split_brute(sigma, blocks), (
                    sigma, blocks,
                )


def test_min_reps_perm_is_lexicographic():
    for n in range(1, 7):
        for blocks in oracles.compositions(n):
            reps = weyl._min_reps_perm(blocks)
            assert reps == sorted(oracles.min_reps_brute(blocks)), blocks


def test_enumerate_quotient_matches_filter_oracle():
    for n in range(1, 7):
        for blocks in oracles.compositions(n):
            quo = cosets.enumerate_quotient({"t": blocks})
            assert [c.rep for c in quo] == [{"t": w} for w in oracles.min_reps_brute(blocks)]
            assert [c.lg for c in quo] == [oracles.inversion_count(c.rep["t"]) for c in quo]
            assert all(c == CosetRep(c.rep, {"t": blocks}) for c in quo)


def test_enumerate_quotient_two_labels_matches_filter_oracle():
    specs = [
        {"b": qb, "a": pb}
        for m in (1, 2, 3) for k in (1, 2, 3)
        for qb in oracles.compositions(m) for pb in oracles.compositions(k)
    ]
    for spec in specs:
        expected = [
            (oracles.inversion_count(u) + oracles.inversion_count(v), (u, v))
            for u in oracles.min_reps_brute(spec["a"])
            for v in oracles.min_reps_brute(spec["b"])
        ]
        expected.sort()
        quo = cosets.enumerate_quotient(spec)
        assert [(c.lg, (c.rep["a"], c.rep["b"])) for c in quo] == expected, spec


def test_coset_rep_length_is_cached_and_lazy():
    c = CosetRep({"t": (3, 1, 2, 4)}, {"t": (1, 1, 2)})
    assert c._lg is None
    assert c.lg == 2
    assert c._lg == 2


def test_quotient_cap(monkeypatch):
    monkeypatch.delenv(cosets.ENV_MAX_QUOTIENT, raising=False)
    cosets._require_quotient_cap({"t": (1,) * 9})  # rank 9 is admitted
    with pytest.raises(ValueError, match="3628800.*WEYLFLAGS_MAX_QUOTIENT"):
        cosets.enumerate_quotient({"t": (1,) * 10})
    with pytest.raises(ValueError, match="3628800"):
        steinberg.steinberg_components_full_flag({"t": (1,) * 10})
    monkeypatch.setenv(cosets.ENV_MAX_QUOTIENT, "10")
    assert len(cosets.enumerate_quotient({"t": (1, 1, 1)})) == 6
    with pytest.raises(ValueError, match="24 cosets"):
        cosets.enumerate_quotient({"t": (1, 1, 1, 1)})
    with pytest.raises(ValueError, match="18 cosets"):
        cosets.enumerate_quotient({"a": (2, 2), "b": (1, 2)})
    monkeypatch.setenv(cosets.ENV_MAX_QUOTIENT, "abc")
    with pytest.raises(ValueError, match="WEYLFLAGS_MAX_QUOTIENT.*'abc'"):
        cosets.enumerate_quotient({"t": (1, 1)})
