import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from weylflags import roots, weyl


def perms(n):
    return map(tuple, itertools.permutations(range(1, n + 1)))


def all_roots(shape):
    pos = roots.positive_roots(shape)
    return pos + tuple(a.negate() for a in pos)


weight_with_perm = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple),
    )
)


def test_spec_validation():
    with pytest.raises(ValueError):
        roots.check_spec({"t": (2, 0, 1)})
    with pytest.raises(ValueError):
        roots.check_spec({"t": ()})
    assert roots.check_spec({"t": (2, 1)}) == {"t": (2, 1)}


def test_block_slices():
    assert roots.block_slices((2, 1, 3)) == ((0, 2), (2, 3), (3, 6))
    assert roots.block_slices(()) == ()
    for blocks in ((2, 0, 1), (3, -1)):
        with pytest.raises(ValueError, match="must be positive"):
            roots.block_slices(blocks)
    for n in range(1, 6):
        for blocks in oracles.compositions(n):
            bl = roots.block_index(blocks)
            for k, (lo, hi) in enumerate(roots.block_slices(blocks)):
                assert [i for i in range(n) if bl[i] == k] == list(range(lo, hi))


def test_root_counts():
    shape = {"a": 3, "b": 2}
    assert len(roots.positive_roots(shape)) == 3 + 1
    assert len(all_roots(shape)) == 2 * 4
    assert len(roots.simple_roots(shape)) == 2 + 1


def test_levi_roots_blocks():
    spec = {"t": (2, 2)}
    plus = oracles.levi_plus(spec)
    assert plus == {roots.Root("t", 1, 2), roots.Root("t", 3, 4)}
    assert oracles.levi_roots(spec) == plus | {a.negate() for a in plus}
    assert roots._simple_roots(roots.check_spec(spec)) == tuple(sorted(plus))


def test_shape_mismatches_raise_value_error():
    with pytest.raises(ValueError, match="shapes differ"):
        roots.act({"t": (2, 1)}, {"s": (0, 1)})
    with pytest.raises(ValueError, match="shapes differ"):
        roots.act({"t": (1, 3, 2)}, {"t": (0, 0)})
    for alpha in (roots.Root("t", 1, 3), roots.Root("t", 0, 1), roots.Root("s", 1, 2)):
        with pytest.raises(ValueError, match="does not fit the shape"):
            roots.pairing(alpha, {"t": (0, 1)})
    with pytest.raises(ValueError, match="shapes differ"):
        roots.p_regular_antidominant({"t": (0, 0)}, {"t": (2, 1)})
    with pytest.raises(ValueError, match="shapes differ"):
        roots.p_regular_antidominant({"t": (0, 0, 1)}, {"s": (2, 1)})


@given(weight_with_perm)
def test_act_is_inverse_indexing(data):
    w, vec = data
    x = {"t": vec}
    moved = roots.act({"t": w}, x)
    winv = weyl.inverse(w)
    assert moved["t"] == tuple(vec[winv[i] - 1] for i in range(len(w)))


@given(weight_with_perm)
def test_act_preserves_pairing(data):
    w, vec = data
    mw = {"t": w}
    x = {"t": vec}
    for alpha in all_roots({"t": len(w)}):
        assert roots.pairing(roots.act_root(mw, alpha), roots.act(mw, x)) == roots.pairing(
            alpha, x
        )


def test_dot_act_pinned_values():
    lam = {"t": (2, 2, 3)}
    assert roots.dot_act({"t": (2, 1, 3)}, lam) == {"t": (1, 3, 3)}
    assert roots.dot_act({"t": (3, 2, 1)}, lam) == {"t": (1, 2, 4)}
    assert roots.dot_act({"t": (1, 2, 3)}, lam) == lam


def test_dot_act_composes():
    lam = {"t": (0, 2, 2, 5)}
    for u in perms(4):
        for v in perms(4):
            left = roots.dot_act({"t": u}, roots.dot_act({"t": v}, lam))
            right = roots.dot_act({"t": weyl.compose(u, v)}, lam)
            assert left == right, (u, v)


def test_inversion_set_sizes_match_length():
    for n in (2, 3, 4):
        for w in perms(n):
            assert len(roots.inversion_set({"t": w})) == weyl.length(w)


def test_inversion_set_relative_counts_min_rep_length():
    # the inversions outside R_P^+ count the length of the minimal representative
    for blocks in oracles.compositions(3):
        spec = {"t": blocks}
        for w in perms(3):
            rel = roots.inversion_set({"t": w}) - oracles.levi_plus(spec)
            rep = oracles.min_coset_rep_brute(w, blocks)
            assert len(rel) == oracles.inversion_count(rep), (w, blocks)


def test_dominance_modes():
    # strict is the one mode
    spec = {"t": (2, 1)}
    assert not roots.dominance({"t": (3, 3, 0)}, spec)
    assert roots.dominance({"t": (4, 3, 0)}, spec)
    # <alpha, x> > 0 on each simple root inside a block, and nothing else
    for n in (1, 2, 3, 4):
        for blocks in oracles.compositions(n):
            bl = oracles.block_of(blocks)
            for x in itertools.product(range(-1, 2), repeat=n):
                strict = all(x[i - 1] > x[i] for i in range(1, n) if bl[i] == bl[i + 1])
                assert roots.dominance({"t": x}, {"t": blocks}) == strict, (x, blocks)


def test_p_regular_witness_is_p_regular():
    for n in (2, 3, 4):
        for blocks in oracles.compositions(n):
            spec = {"t": blocks}
            h = roots.p_regular_witness(spec)
            assert roots.p_regular_antidominant(h, spec), blocks
            # and for no other spec of the same shape
            for other in oracles.compositions(n):
                if other != blocks:
                    assert not roots.p_regular_antidominant(h, {"t": other})


def test_p_regular_negative_roots_are_complement_of_levi():
    spec = {"a": (2, 1), "b": (1, 1)}
    h = roots.p_regular_witness(spec)
    negative = {
        alpha
        for alpha in all_roots(roots.shape_of(h))
        if roots.pairing(alpha, h) < 0
    }
    expected = set()
    for tau in ("a", "b"):
        expected |= {
            roots.Root(tau, i, j)
            for (i, j) in oracles.negative_pairing_roots(h[tau])
        }
    assert negative == expected
    levi_plus = oracles.levi_plus(spec)
    positive = set(roots.positive_roots(roots.shape_of(h)))
    assert {a for a in positive if roots.pairing(a, h) < 0} == positive - levi_plus
