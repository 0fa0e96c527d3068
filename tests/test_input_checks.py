"""Every public entry that takes a block composition or a spec refuses
what the conventions rule out: block sizes below 1, a composition that
does not sum to the rank, a spec that is empty or not a dict, and a spec
whose labels or sums differ from the shape of the permutation, coset or
weight it comes with; a weight is refused when its shape differs from
the coset's."""

import pytest

from weylflags import cosets, fforacle as ff, roots, steinberg

REFUSAL = "must be positive|do not sum to|shapes differ"
W = {"t": (3, 1, 2)}
GOOD = {"t": (2, 1)}
NU = ff.FqMatrix(2, ((0, 0, 0),) * 3)

BAD = {
    "negative": {"t": (3, -1)},
    "zero": {"t": (0, 3)},
    "wrong rank": {"t": (2, 2)},
    "wrong label": {"s": (2, 1)},
}

# entry -> (the bad inputs it can tell apart, a call taking a spec); an
# entry given one composition sees the blocks of the spec's only label,
# and one given a spec alone has no rank or labels to fit
POSITIVE, RANK, SHAPE = ("negative", "zero"), ("negative", "zero", "wrong rank"), tuple(BAD)
# a weight made from a spec (its P-regular witness) is refused by shape alone
FIT = ("wrong rank", "wrong label")
COSET, H = cosets.CosetRep(W, GOOD), roots.p_regular_witness(GOOD)


def _blocks(spec):
    (blocks,) = spec.values()
    return blocks


ENTRIES = {
    "min_rep_perm": (RANK, lambda s: cosets.min_rep_perm(W["t"], _blocks(s))),
    "min_rep": (SHAPE, lambda s: cosets.min_rep(W, s)),
    "CosetRep": (SHAPE, lambda s: cosets.CosetRep(W, s)),
    "lg_P": (SHAPE, lambda s: cosets.lg_P(W, s)),
    "enumerate_quotient": (POSITIVE, cosets.enumerate_quotient),
    "length_split_stats": (RANK, lambda s: cosets.length_split_stats(W["t"], _blocks(s))),
    "wp_elements": (POSITIVE, cosets.wp_elements),
    "longest_in_levi": (POSITIVE, cosets.longest_in_levi),
    "shortest_double_coset_rep": (SHAPE, lambda s: cosets.shortest_double_coset_rep(W, s, GOOD)),
    "p_regular_witness": (POSITIVE, roots.p_regular_witness),
    "p_regular_antidominant": (SHAPE, lambda s: roots.p_regular_antidominant({"t": (0, 0, 1)}, s)),
    "dominance": (SHAPE, lambda s: roots.dominance({"t": (1, 0, 0)}, s)),
    "levi_cap_u_in_nQ": (SHAPE, lambda s: steinberg.levi_cap_u_in_nQ(W, GOOD, s)),
    "z_dimension_defect": (SHAPE, lambda s: steinberg.z_dimension_defect(W, GOOD, s)),
    "component_in_ZQP_roots P": (SHAPE, lambda s: steinberg.component_in_ZQP_roots(COSET, s, GOOD)),
    "component_in_ZQP_roots Q": (SHAPE, lambda s: steinberg.component_in_ZQP_roots(COSET, GOOD, s)),
    "component_in_ZQP P": (SHAPE, lambda s: steinberg.component_in_ZQP(COSET, s, GOOD, H)),
    "component_in_ZQP Q": (SHAPE, lambda s: steinberg.component_in_ZQP(COSET, GOOD, s, H)),
    "component_in_ZQP h": (
        FIT,
        lambda s: steinberg.component_in_ZQP(COSET, GOOD, GOOD, roots.p_regular_witness(s)),
    ),
    "enumerate_partial_flags": (RANK, lambda s: ff.enumerate_partial_flags(3, 2, _blocks(s))),
    "incidence_count": (
        RANK,
        lambda s: ff.incidence_count(NU, "in_p", "partial_flag", blocks=_blocks(s)),
    ),
    "shortest_element_fq_check": (
        RANK,
        lambda s: ff.shortest_element_fq_check(W["t"], _blocks(s), 2),
    ),
    "covering_degree_check": (POSITIVE, lambda s: ff.covering_degree_check(_blocks(s), 3)),
}


@pytest.mark.parametrize(
    "entry, bad",
    [(entry, bad) for entry, (kinds, _) in ENTRIES.items() for bad in kinds],
)
def test_entries_refuse_bad_compositions_and_specs(entry, bad):
    _, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=REFUSAL):
        call(BAD[bad])


def test_entries_accept_the_good_spec_as_tuples_or_lists():
    for _, call in ENTRIES.values():
        assert call(GOOD) == call({"t": [2, 1]})


@pytest.mark.parametrize(
    "call",
    [
        roots.check_spec, cosets.enumerate_quotient, cosets.wp_elements, cosets.longest_in_levi,
        roots.p_regular_witness,
    ],
)
def test_entries_refuse_an_empty_spec_or_a_bare_composition(call):
    # enumerate_quotient({}) would list one coset that CosetRep refuses,
    # and a bare composition has no label to read
    for bad in ({}, [2, 1]):
        with pytest.raises(ValueError, match="spec must be a non-empty label -> blocks mapping"):
            call(bad)
