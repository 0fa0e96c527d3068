import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from weylflags import fforacle, weyl


def perms(n):
    return map(tuple, itertools.permutations(range(1, n + 1)))


perm_strategy = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_check_perm_rejects_garbage():
    # cell_free_positions validates its permutation the same way
    for check in (weyl.check_perm, fforacle.cell_free_positions):
        for bad in ((1, 1, 2), (0, 1, 2), (), (1, 1), (3, 1)):
            with pytest.raises(ValueError, match="not a permutation"):
                check(bad)


def test_compose_convention():
    # (u o v)(i) = u(v(i))
    u = (2, 1, 3)
    v = (1, 3, 2)
    assert weyl.compose(u, v) == (2, 3, 1)
    assert weyl.compose(v, u) == (3, 1, 2)
    with pytest.raises(ValueError):
        weyl.compose((1, 2), (1, 2, 3))


def test_length_matches_bfs_oracle():
    for n in (1, 2, 3, 4):
        for w in perms(n):
            assert weyl.length(w) == oracles.bfs_length(w)


def test_longest_element():
    assert weyl.longest_element(4) == (4, 3, 2, 1)
    assert weyl.length(weyl.longest_element(4)) == 6


@given(perm_strategy)
def test_inverse_roundtrip(w):
    assert weyl.compose(w, weyl.inverse(w)) == weyl.identity(len(w))
    assert weyl.length(weyl.inverse(w)) == weyl.length(w)


def reduced_word(w):
    """The simple indices of the reduced word of w as a one-label product."""
    return tuple(i for _, i in weyl.multi_reduced_word({"t": w}))


@given(perm_strategy)
def test_reduced_word_reassembles(w):
    word = reduced_word(w)
    assert len(word) == weyl.length(w)
    assert oracles.product_of_word(word, len(w)) == w


def test_reduced_word_pinned():
    assert reduced_word((3, 2, 1)) == (1, 2, 1)
    assert reduced_word((1, 2, 3)) == ()


def test_bruhat_matches_subword_oracle():
    for n in (2, 3, 4):
        for u in perms(n):
            for v in perms(n):
                assert weyl.bruhat_leq(u, v) == oracles.bruhat_leq_subword(u, v), (u, v)


def test_bruhat_s5_spot_checks():
    # dominance route must stay consistent with the subword route where
    # the BFS is still affordable
    pairs = [
        ((2, 1, 4, 3, 5), (5, 4, 3, 2, 1)),
        ((3, 1, 4, 2, 5), (3, 5, 4, 1, 2)),
        ((1, 5, 2, 4, 3), (2, 5, 4, 3, 1)),
        ((4, 3, 2, 1, 5), (1, 2, 3, 4, 5)),
    ]
    for u, v in pairs:
        assert weyl.bruhat_leq(u, v) == oracles.bruhat_leq_subword(u, v)


@given(perm_strategy, perm_strategy)
def test_bruhat_antisymmetry_and_length(u, v):
    if len(u) != len(v):
        return
    if weyl.bruhat_leq(u, v) and weyl.bruhat_leq(v, u):
        assert u == v
    if weyl.bruhat_leq(u, v) and u != v:
        assert weyl.length(u) < weyl.length(v)


def test_multi_ops_are_componentwise():
    u = {"a": (2, 1, 3), "b": (1, 3, 2)}
    v = {"a": (1, 3, 2), "b": (2, 1, 3)}
    assert weyl.multi_length(u) == 2
    product = weyl.multi_compose(u, v)
    assert product == {"a": weyl.compose(u["a"], v["a"]), "b": weyl.compose(u["b"], v["b"])}
    assert weyl.multi_compose(u, weyl.multi_inverse(u)) == weyl.multi_identity(
        {"a": 3, "b": 3}
    )
    assert weyl.multi_bruhat_leq(u, u)
    assert not weyl.multi_bruhat_leq({"a": (2, 1, 3), "b": (1, 3, 2)}, v)
    with pytest.raises(ValueError):
        weyl.multi_compose(u, {"a": (1, 2, 3)})


def test_multi_reduced_word_reassembles():
    w = {"a": (3, 1, 2), "b": (2, 1)}
    word = weyl.multi_reduced_word(w)
    assert len(word) == weyl.multi_length(w)
    cur = weyl.multi_identity({"a": 3, "b": 2})
    for tau, i in word:
        cur = weyl.multi_compose(cur, weyl.multi_simple_reflection({"a": 3, "b": 2}, tau, i))
    assert cur == w


multi_perm_strategy = st.dictionaries(
    st.sampled_from("abc"),
    st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1))).map(tuple)),
    min_size=1,
)


@settings(max_examples=300, derandomize=True)
@given(multi_perm_strategy)
def test_multi_reduced_word_matches_the_rescan_reference(w):
    assert weyl.multi_reduced_word(w) == oracles.multi_reduced_word_rescan(w)


def test_multi_reduced_word_of_the_longest_rank_400_element_is_fast():
    # l(w_0) = 79,800 swaps; rescanning the whole permutation after each
    # swap took seconds here
    w0 = {"t": weyl.longest_element(400)}
    start = time.perf_counter()
    word = weyl.multi_reduced_word(w0)
    elapsed = time.perf_counter() - start
    assert len(word) == 400 * 399 // 2
    assert elapsed < 1.0, f"rank 400 took {elapsed:.2f}s"


def test_sort_key_orders_by_length_first():
    elems = [{"t": w} for w in perms(3)]
    ordered = sorted(elems, key=weyl.sort_key)
    lengths = [weyl.multi_length(w) for w in ordered]
    assert lengths == sorted(lengths)
    assert ordered[0] == {"t": (1, 2, 3)}
    assert ordered[-1] == {"t": (3, 2, 1)}
