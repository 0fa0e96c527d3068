import itertools
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from weylflags import cli, companion, cosets, fforacle, jsonio, roots, steinberg, weyl
from weylflags.companion import (
    CharacterSymbol,
    PlaceRefinement,
    RefinementSpec,
    companion_set,
    genericity_check,
    jordan_holder_cosets,
    relative_position,
    weights_from_hodge,
)
from weylflags.cosets import CosetRep


def refinement(q=3, values=None):
    return RefinementSpec(
        (PlaceRefinement("v", q, ("t",), ("a", "b", "c"), values),)
    )


def test_runs_composition():
    assert companion.runs_composition((1, 1, 2)) == (2, 1)
    assert companion.runs_composition((0, 0, 0)) == (3,)
    assert companion.runs_composition((5,)) == (1,)
    with pytest.raises(ValueError):
        companion.runs_composition((2, 1))


def test_empty_vectors_get_no_block():
    # a rank-0 weight has no stabilizer blocks, not one block of size 1
    with pytest.raises(ValueError, match="empty"):
        companion.runs_composition(())
    with pytest.raises(ValueError, match="empty"):
        weights_from_hodge({"t": ()})
    with pytest.raises(ValueError, match="non-empty label -> vector mapping"):
        weights_from_hodge({})


def test_weights_from_hodge_pinned():
    lam, spec = weights_from_hodge({"t": (1, 1, 2)})
    assert lam == {"t": (2, 2, 3)}
    assert spec == {"t": (2, 1)}
    # lambda + staircase must be dominant: weakly decreasing
    shifted = [x + r for x, r in zip(lam["t"], roots.staircase({"t": 3})["t"])]
    assert shifted == sorted(shifted, reverse=True)


def test_dot_action_recovers_hodge_tail():
    # w_0 · lambda = (h_1, h_2 + 1, ..., h_n + n - 1)
    for h in [(0, 1, 4), (1, 1, 2), (2, 2, 2)]:
        lam, _ = weights_from_hodge({"t": h})
        moved = roots.dot_act({"t": (3, 2, 1)}, lam)
        assert moved == {"t": tuple(h[i] + i for i in range(3))}


def test_relative_position_roundtrip_and_minimality():
    h = {"t": (1, 1, 2)}
    for w in itertools.permutations((1, 2, 3)):
        cw = roots.act({"t": tuple(w)}, h)
        pos = relative_position(cw, h)
        assert roots.act(pos.rep, h) == cw
        assert cosets.min_rep(pos.rep, pos.spec) == pos.rep
        assert pos == CosetRep({"t": tuple(w)}, {"t": (2, 1)})
    # every rearrangement of every weakly increasing h with n <= 5 and
    # entries in {0, 1, 2}, reached from every w
    for n in range(1, 6):
        for hvec in itertools.combinations_with_replacement(range(3), n):
            blocks = tuple(len(list(run)) for _, run in itertools.groupby(hvec))
            for w in itertools.permutations(range(1, n + 1)):
                cw = roots.act({"t": w}, {"t": hvec})
                pos = relative_position(cw, {"t": hvec})
                assert roots.act(pos.rep, {"t": hvec}) == cw
                assert pos.rep["t"] == oracles.min_coset_rep_brute(w, blocks), (hvec, w)


def test_relative_position_pinned_and_validated():
    assert relative_position({"t": (2, 1, 1)}, {"t": (1, 1, 2)}).rep == {
        "t": (2, 3, 1)
    }
    with pytest.raises(ValueError):
        relative_position({"t": (2, 2, 1)}, {"t": (1, 1, 2)})
    with pytest.raises(ValueError):
        relative_position({"s": (1, 1, 2)}, {"t": (1, 1, 2)})


def test_twist_untwist_inverse():
    # the identity coset's weight is h plus the staircase at each embedding
    h = {"a": (4, 0, 1), "b": (2, 2)}
    identity = CosetRep({"a": (1, 2, 3), "b": (1, 2)}, {"a": (1, 1, 1), "b": (1, 1)})
    assert companion.character_for(identity, h, ()).algebraic_weight == {"a": (4, 1, 3), "b": (2, 3)}


def test_companion_set_two_character_case():
    h = {"t": (1, 1, 2)}
    w_R = CosetRep({"t": (1, 3, 2)}, {"t": (2, 1)})
    out = companion_set(refinement(), h, w_R)
    assert len(out) == 2
    weights = [c.algebraic_weight for _, c in out]
    assert weights == [{"t": (1, 3, 3)}, {"t": (2, 2, 3)}]
    for _, c in out:
        assert c.smooth_labels == (("v", ("a", "b", "c")),)


def test_companion_set_full_quotient_from_bottom():
    h = {"t": (0, 1, 2)}
    w_R = CosetRep({"t": (1, 2, 3)}, {"t": (1, 1, 1)})
    out = companion_set(refinement(), h, w_R)
    assert len(out) == 6
    lgs = [w.lg for w, _ in out]
    assert lgs == sorted(lgs)
    # distinct twisted weights for a regular h
    assert len({tuple(c.algebraic_weight["t"]) for _, c in out}) == 6


def test_companion_set_rejects_foreign_coset():
    h = {"t": (1, 1, 2)}
    wrong = CosetRep({"t": (1, 2, 3)}, {"t": (1, 1, 1)})
    with pytest.raises(ValueError):
        companion_set(refinement(), h, wrong)


def test_jordan_holder_cosets_ideal_and_interval():
    spec = {"t": (1, 1, 1)}
    top = CosetRep({"t": (3, 2, 1)}, spec)
    ideal = jordan_holder_cosets(top)
    assert len(ideal) == 6
    assert ideal[-1] == top
    mid = CosetRep({"t": (2, 1, 3)}, spec)
    interval = [c for c in ideal if cosets.quotient_leq(mid, c)]
    assert len(interval) == 4  # {s1, s1s2, s2s1, w0} above s1 in S_3


def test_jordan_holder_cover_step_has_two_cosets():
    spec = {"t": (2, 1)}
    w_R = CosetRep({"t": (1, 3, 2)}, spec)
    cover = CosetRep({"t": (2, 3, 1)}, spec)
    assert cover.lg == w_R.lg + 1
    pair = [c for c in jordan_holder_cosets(cover) if cosets.quotient_leq(w_R, c)]
    assert pair == [w_R, cover]


def test_certify_walk_reaches_top_with_saturated_chain():
    for n in (2, 3, 4):
        for blocks in oracles.compositions(n):
            spec = {"t": blocks}
            h = {"t": tuple(x for b, size in enumerate(blocks) for x in [b] * size)}
            for start in cosets.enumerate_quotient(spec):
                cert = companion.certify_walk(start, h)
                assert cert.passed
                assert cert.start == start
                assert cert.end.rep == cosets.min_rep(
                    weyl.multi_longest({"t": n}), spec
                )
                assert len(cert.chain) == cert.end.lg - start.lg
                cur = start
                for step in cert.chain:
                    assert step.w_from == cur
                    assert step.w_to.lg == cur.lg + 1
                    cur = step.w_to
                assert cur == cert.end


def walk_specs():
    """Every spec of rank <= 5 at one label, and every two-label spec whose
    ranks differ and are at most 3."""
    specs = [{"t": blocks} for n in range(1, 6) for blocks in oracles.compositions(n)]
    for m, k in itertools.permutations(range(1, 4), 2):
        specs += [{"a": a, "b": b} for a in oracles.compositions(m) for b in oracles.compositions(k)]
    return specs


def test_certify_walk_takes_the_reference_steps():
    for spec in walk_specs():
        # P-regular antidominant, its gaps differing by block and label
        h = {tau: tuple(k * k + len(tau) for k in weyl.block_index(blocks)) for tau, blocks in spec.items()}
        for start in cosets.enumerate_quotient(spec):
            cert = companion.certify_walk(start, h)
            reference = oracles.walk(start, h)
            assert cert.chain == tuple(reference), (spec, start)
            assert cert.end == (reference[-1].w_to if reference else start)
            assert cert.passed


def test_certify_walk_checks_its_inputs_once(monkeypatch):
    # this 36-step walk used to make 146 check_spec, 254 check_shapes and
    # 38 check_multi calls, a few for every step
    h = {"a": (0, 1, 2, 3, 4, 5, 6), "b": (0, 0, 0, 1, 1, 1, 2)}
    start = CosetRep(weyl.multi_identity(weyl.shape_of(h)), companion.hodge_spec(h))
    counts = Counter()
    for home, name in ((roots, "check_spec"), (weyl, "check_multi"), (weyl, "check_shapes")):
        fn = getattr(home, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        for module in (weyl, roots, cosets, steinberg, companion, fforacle, jsonio, cli):
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted)
    cert = companion.certify_walk(start, h)
    assert len(cert.chain) == 36 and cert.passed
    assert set(counts) == {"check_spec", "check_multi", "check_shapes"}
    assert max(counts.values()) <= 2, counts


def test_certify_walk_rejects_non_weakly_increasing_h():
    with pytest.raises(ValueError):
        companion.certify_walk(
            CosetRep({"t": (1, 2, 3)}, {"t": (1, 1, 1)}), {"t": (2, 1, 0)}
        )


def test_genericity_exact_boundaries():
    f = Fraction
    assert genericity_check(refinement(values=(f(1), f(2), f(7))))
    # ratio exactly q
    assert not genericity_check(refinement(values=(f(1), f(3), f(7))))
    assert not genericity_check(refinement(values=(f(2), f(6), f(7))))
    # equal pair
    assert not genericity_check(refinement(values=(f(1), f(5), f(5))))
    # rational ratios stay exact: 5/2 over 5/6 is q = 3
    assert not genericity_check(refinement(values=(f(5, 6), f(5, 2), f(7))))
    with pytest.raises(ValueError):
        genericity_check(refinement())
    with pytest.raises(ValueError):
        genericity_check(refinement(values=(f(0), f(1), f(2))))


def test_character_symbol_equality_is_structural():
    a = CharacterSymbol({"t": (1, 2)}, (("v", ("a", "b")),))
    b = CharacterSymbol({"t": (1, 2)}, (("v", ("a", "b")),))
    c = CharacterSymbol({"t": (2, 1)}, (("v", ("a", "b")),))
    assert a == b
    assert a != c


def interval_cases():
    """(spec, h, quotient as label -> perm dicts sorted by the library's
    key) for every composition with n <= 4 and two labels at n = 3."""
    specs = [{"t": b} for n in (1, 2, 3, 4) for b in oracles.compositions(n)]
    specs += [{"a": a, "b": b} for a in oracles.compositions(3) for b in oracles.compositions(3)]
    for spec in specs:
        labels = sorted(spec)
        h = {tau: tuple(k for k, size in enumerate(spec[tau]) for _ in range(size)) for tau in labels}
        quotient = [
            dict(zip(labels, parts))
            for parts in itertools.product(*(oracles.min_reps_brute(spec[tau]) for tau in labels))
        ]
        quotient.sort(key=lambda w: (sum(map(oracles.inversion_count, w.values())), weyl.freeze(w)))
        yield spec, h, quotient


def leq(u, v):
    return all(oracles.bruhat_leq_subword(u[tau], v[tau]) for tau in u)


def test_companion_set_matches_filter_oracle():
    for spec, h, quotient in interval_cases():
        for start in quotient:
            w_R = CosetRep(start, spec)
            got = companion_set(refinement(), h, w_R)
            assert [w.rep for w, _ in got] == [v for v in quotient if leq(start, v)], (spec, start)
            assert got == oracles.companion_set(refinement(), h, w_R)
            for w, c in got:
                assert w.lg == sum(map(oracles.inversion_count, w.rep.values()))


def test_companion_set_matches_the_act_reference():
    for spec in oracles.listing_specs():
        h = roots.p_regular_witness(spec)
        quotient = cosets.enumerate_quotient(spec)
        for w_R in (quotient[0], quotient[len(quotient) // 2], quotient[-1]):
            got = companion_set(refinement(), h, w_R)
            assert got == oracles.companion_set(refinement(), h, w_R), (spec, w_R)


def test_jordan_holder_cosets_match_filter_oracle():
    for spec, h, quotient in interval_cases():
        for top in quotient:
            w = CosetRep(top, spec)
            below = [v for v in quotient if leq(v, top)]
            got = jordan_holder_cosets(w)
            assert [c.rep for c in got] == below, (spec, top)
            assert [c.lg for c in got] == [weyl.multi_length(v) for v in below]


def test_intervals_refuse_quotients_over_the_cap(monkeypatch):
    monkeypatch.setenv(cosets.ENV_MAX_QUOTIENT, "5")
    h = {"t": (0, 1, 2)}
    top = CosetRep({"t": (3, 2, 1)}, {"t": (1, 1, 1)})
    with pytest.raises(ValueError, match="6 cosets"):
        companion_set(refinement(), h, top)
    with pytest.raises(ValueError, match="6 cosets"):
        jordan_holder_cosets(top)
