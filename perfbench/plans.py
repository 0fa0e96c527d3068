"""Seeded request lists for the three workloads.

The seed picks every input; the library only ever sees the generated
requests.  Each workload is a fixed list of slots (request kind, rank,
composition shape, start-position class), so two seeds produce different
inputs with the same class counts and nearly the same cost, and the
spread between seeds measures the program rather than the generator.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import verify

FF_GRID = ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3))
LABEL_POOL = ("a", "b", "s", "t", "u", "v", "x", "y")


# ---------------------------------------------------------------------------
# ff-grid

def ff_grid_plan(seed: int):
    """One `ff-verify --suite all` request per (n, p); the seed shuffles
    the order."""
    order = list(FF_GRID)
    random.Random(seed).shuffle(order)
    return [
        {
            "id": k,
            "cls": f"n{n}p{p}",
            "kind": "ff-verify",
            "n": n,
            "p": p,
            "argv": ["ff-verify", "--suite", "all", "--n", str(n), "--p", str(p)],
            "expect_code": 0,
        }
        for k, (n, p) in enumerate(order)
    ]


# ---------------------------------------------------------------------------
# combinatorics-cli

def _perm(rng, n):
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return w


def _composition(rng, n, shape):
    if shape == "borel":
        return [1] * n
    if shape == "one2":  # a single 2-block among 1-blocks, at a seeded place
        k = rng.randrange(n - 1)
        return [1] * k + [2] + [1] * (n - 2 - k)
    if shape == "coarse":
        out = []
        while sum(out) < n:
            out.append(min(rng.randint(2, 3), n - sum(out)))
        rng.shuffle(out)
        return out
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _labels(rng, count):
    return sorted(rng.sample(LABEL_POOL, count))


def _as_arg(values: dict) -> str:
    """Single-label maps go out as the bare-array shorthand half the time."""
    if list(values) == ["tau"]:
        return json.dumps(values["tau"])
    return json.dumps(values)


def _label_set(rng, count):
    if count == 1 and rng.random() < 0.5:
        return ["tau"]
    return _labels(rng, count)


def _in_levi(rng, blocks):
    """A random element of W_P (reverses/shuffles inside blocks)."""
    out, start = [], 1
    for size in blocks:
        part = list(range(start, start + size))
        rng.shuffle(part)
        out.extend(part)
        start += size
    return out


def _hodge(rng, blocks):
    """A weakly increasing weight whose equal runs are exactly ``blocks``."""
    out, value = [], rng.randint(-2, 2)
    for size in blocks:
        out.extend([value] * size)
        value += rng.randint(1, 3)
    return out


def _eigenvalues(rng, labels, q, generic):
    while True:
        values = rng.sample(range(2, 40), len(labels))
        vals = [Fraction(v, rng.choice((1, 1, 3))) for v in values]
        ok = all(a / b not in (1, q) for a in vals for b in vals if a is not b)
        if ok:
            break
    if not generic:
        i, j = rng.sample(range(len(vals)), 2)
        vals[j] = vals[i] * q if rng.random() < 0.5 else vals[i]
    return {lbl: (str(v) if v.denominator != 1 else v.numerator) for lbl, v in zip(labels, vals)}


def _scenario(rng, n, labels, blocks_for, position=None, eigen=None):
    """A scenario with one place per label; ``blocks_for(tau)`` gives the
    hodge block structure; ``eigen`` is None (no values), True or False
    (generic or not)."""
    places, weights = [], {}
    for k, tau in enumerate(labels):
        order = [f"e{k}_{i}" for i in range(n)]
        hw = _hodge(rng, blocks_for(tau))
        weights[tau] = hw
        place = {
            "label": f"p{k}",
            "q": rng.choice((5, 7)),
            "embeddings": [tau],
            "hodge_weights": {tau: hw},
            "refinement_order": order,
        }
        if eigen is not None:
            place["eigenvalues"] = _eigenvalues(rng, order, place["q"], eigen if k == 0 else True)
        places.append(place)
    scenario = {"places": places}
    if position is not None:
        scenario["position"] = position
    return scenario, weights


def _position(rng, n, labels, blocks, where):
    """A (non-minimal) representative of the identity coset, the top coset,
    or a random coset."""
    out = {}
    for tau in labels:
        levi = _in_levi(rng, blocks[tau])
        if where == "low":
            out[tau] = levi
        elif where == "top":
            out[tau] = list(verify.compose(verify.longest(n), tuple(levi)))
        else:
            out[tau] = _perm(rng, n)
    return out


def _weyl(rng, n, count, other):
    labels = _label_set(rng, count)
    spec = {"kind": "weyl", "perm": {tau: _perm(rng, n) for tau in labels}}
    argv = ["weyl", "--perm", _as_arg(spec["perm"])]
    if other:
        spec["other"] = {tau: _perm(rng, n) for tau in labels}
        argv += ["--other", _as_arg(spec["other"])]
    return spec, argv


def _coset(rng, n, count, shape, other=False, qshape=None, enumerate_=False):
    labels = _label_set(rng, count)
    spec = {
        "kind": "coset",
        "perm": {tau: _perm(rng, n) for tau in labels},
        "blocks": {tau: _composition(rng, n, shape) for tau in labels},
    }
    argv = ["coset", "--perm", _as_arg(spec["perm"]), "--blocks", _as_arg(spec["blocks"])]
    if other:
        spec["other"] = {tau: _perm(rng, n) for tau in labels}
        argv += ["--other", _as_arg(spec["other"])]
    if qshape:
        spec["qblocks"] = {tau: _composition(rng, n, qshape) for tau in labels}
        argv += ["--qblocks", _as_arg(spec["qblocks"])]
    if enumerate_:
        spec["enumerate"] = True
        argv.append("--enumerate")
    return spec, argv


def _levi_order(blocks_map) -> int:
    return math.prod(math.factorial(b) for blocks in blocks_map.values() for b in blocks)


def _steinberg_perm(rng, n, count, pshape, qshape):
    labels = _label_set(rng, count)
    while True:
        blocks = {tau: _composition(rng, n, pshape) for tau in labels}
        qblocks = {tau: _composition(rng, n, qshape) for tau in labels}
        # up to rank 6 the double-coset minimum is found by listing W_Q w W_P
        if n > 6 or _levi_order(blocks) * _levi_order(qblocks) <= 5000:
            break
    spec = {
        "kind": "steinberg",
        "blocks": blocks,
        "qblocks": qblocks,
        "perm": {tau: _perm(rng, n) for tau in labels},
        "h": {tau: list(verify.block_witness(blocks[tau], rng.randint(-3, 3))) for tau in labels},
    }
    argv = [
        "steinberg", "--blocks", _as_arg(spec["blocks"]), "--qblocks", _as_arg(spec["qblocks"]),
        "--perm", _as_arg(spec["perm"]), "--h", _as_arg(spec["h"]),
    ]
    return spec, argv


def _steinberg_list(rng, n, count, qshape):
    labels = _label_set(rng, count)
    spec = {
        "kind": "steinberg",
        "blocks": {tau: _composition(rng, n, "random") for tau in labels},
        "qblocks": {tau: _composition(rng, n, qshape) for tau in labels},
        "list_components": True,
    }
    argv = [
        "steinberg", "--blocks", _as_arg(spec["blocks"]), "--qblocks", _as_arg(spec["qblocks"]),
        "--list-components",
    ]
    return spec, argv


def _companion(rng, n, count, shape, where, eigen=True, jordan_holder=False):
    labels = _labels(rng, count)
    blocks = {tau: _composition(rng, n, shape) for tau in labels}
    position = None if where == "default" else _position(rng, n, labels, blocks, where)
    scenario, _ = _scenario(rng, n, labels, blocks.get, position, eigen)
    spec = {"kind": "companion", "scenario": scenario}
    argv = ["companion", "--scenario", None]
    if jordan_holder:
        spec["jordan_holder"] = True
        argv.append("--jordan-holder")
    if eigen is False:
        spec["expect_code"] = 1
    return spec, argv


def _walk(rng, n, count, shape, via_scenario):
    labels = _labels(rng, count)
    blocks = {tau: _composition(rng, n, shape) for tau in labels}
    start = _position(rng, n, labels, blocks, "random")
    if via_scenario:
        scenario, h = _scenario(rng, n, labels, blocks.get, start, None)
        spec = {"kind": "walk", "scenario": scenario, "h": h, "start": start}
        argv = ["walk", "--scenario", None]
    else:
        h = {tau: _hodge(rng, blocks[tau]) for tau in labels}
        spec = {"kind": "walk", "h": h}
        argv = ["walk", "--h", json.dumps(h)]
        if rng.random() < 0.5:
            spec["start"] = {tau: list(range(1, n + 1)) for tau in labels}
        else:
            spec["start"] = start
            argv += ["--perm", json.dumps(start)]
    return spec, argv


def _light_slots():
    """80 requests of about one interpreter start-up each."""
    slots = []
    for k in range(14):
        slots.append(lambda r, k=k: _weyl(r, 3 + k % 6, 1 + k % 2, other=k % 3 != 0))
    for k in range(8):
        slots.append(lambda r, k=k: _coset(r, 3 + k % 6, 1 + k % 2, "random", other=k % 2 == 0))
    for k in range(6):
        # n <= 6 takes the exhaustive double-coset route; keep W_Q x W_P small
        slots.append(lambda r, k=k: _coset(r, 4 + k % 5, 1, ("borel", "random", "one2")[k % 3], qshape="borel" if k % 2 else "one2"))
    for k in range(8):
        n, count = ((3, 1), (4, 1), (5, 1), (3, 2))[k % 4]
        slots.append(lambda r, n=n, count=count, k=k: _coset(r, n, count, ("borel", "coarse")[k % 2], enumerate_=True))
    for k in range(10):
        slots.append(lambda r, k=k: _steinberg_perm(r, 3 + k % 6, 1 + k % 2, "random", "random"))
    for k in range(4):
        slots.append(lambda r, k=k: _steinberg_list(r, 4 + k % 2, 1, ("borel", "random")[k % 2]))
    for k in range(18):
        n, count = ((3, 1), (4, 1), (5, 1), (3, 2))[k % 4]
        eigen = (True, None, False)[k % 3]
        where = ("random", "low", "top", "default")[k % 4]
        slots.append(lambda r, n=n, count=count, eigen=eigen, where=where, k=k: _companion(
            r, n, count, ("borel", "random")[k % 2], where, eigen, jordan_holder=k % 5 == 0))
    for k in range(12):
        slots.append(lambda r, k=k: _walk(r, 3 + k % 6, 1 + k % 2, "random", via_scenario=k % 2 == 0))
    return slots


def _heavy_slots():
    """13 requests that each enumerate a whole rank-8 quotient.  Three
    write megabytes of JSON; five list a quotient of 20160 cosets; five
    start at the top coset, so they keep one coset out of 20160 scanned.
    The last five hold ranks 9-13 of the slowest requests, so the tail
    percentile of the 93-request mix (the 11th slowest) is their median."""
    slots = [
        lambda r: _coset(r, 8, 1, "borel", enumerate_=True),
        lambda r: _companion(r, 8, 1, "one2", "low"),
        lambda r: _companion(r, 8, 1, "one2", "default", jordan_holder=True),
    ]
    slots += [lambda r, k=k: _coset(r, 8, 1, "one2", qshape="coarse" if k % 2 else None, enumerate_=True) for k in range(3)]
    slots += [lambda r: _steinberg_list(r, 8, 1, "one2") for _ in range(2)]
    slots += [lambda r: _companion(r, 8, 1, "one2", "top") for _ in range(5)]
    return slots


def combinatorics_plan(seed: int, scenario_dir: Path):
    """93 seeded CLI requests (80 light, 13 heavy) in a seeded order.

    Scenario files are written by ``write_scenarios``; the request list
    itself is pure data."""
    rng = random.Random(seed)
    reqs = []
    for cls, slots in (("light", _light_slots()), ("heavy", _heavy_slots())):
        for make in slots:
            spec, argv = make(rng)
            spec.setdefault("expect_code", 0)
            spec["cls"] = cls
            spec["argv"] = argv
            reqs.append(spec)
    rng.shuffle(reqs)
    for k, spec in enumerate(reqs):
        spec["id"] = k
        if None in spec["argv"]:
            path = str(scenario_dir / f"scenario_{k}.json")
            spec["scenario_path"] = path
            spec["argv"] = [path if a is None else a for a in spec["argv"]]
    return reqs


def write_scenarios(reqs):
    for spec in reqs:
        if "scenario_path" in spec:
            Path(spec["scenario_path"]).write_text(json.dumps(spec["scenario"]))


# ---------------------------------------------------------------------------
# library-inproc

def _route_triples(rng):
    """(a): every (P, Q, w W_P) with rank <= 5, w given by a random
    representative of its coset."""
    out = []
    for n in range(1, 6):
        comps = verify.compositions(n)
        for pblocks in comps:
            reps = [w for w in itertools.permutations(range(1, n + 1)) if verify.block_sort(w, pblocks) == w]
            for qblocks in comps:
                for w in reps:
                    rep = verify.compose(w, tuple(_in_levi(rng, pblocks)))
                    out.append({"part": "route", "n": n, "P": list(pblocks), "Q": list(qblocks), "w": list(rep)})
    return out


# (b): double-coset triples at n = 6 (exhaustive route) and 7 (normalising
# route).  Block-size multisets are fixed per slot so the cost is fixed;
# the seed orders the blocks and picks w.
SDCR_SHAPES = (
    ((3, 2, 1), (2, 2, 2)), ((4, 1, 1), (2, 2, 1, 1)), ((2, 2, 2), (3, 3)),
    ((3, 3), (2, 1, 1, 1, 1)), ((2, 2, 1, 1), (2, 2, 1, 1)), ((1,) * 6, (3, 2, 1)),
    ((3, 2, 2), (4, 3)), ((1,) * 7, (2,) * 3 + (1,)), ((5, 2), (3, 2, 2)), ((4, 2, 1), (2, 2, 2, 1)),
)


def _library_walks_and_reps(rng):
    out = []
    for k in range(48):
        n = 6 + k % 2
        labels = _labels(rng, 2)
        blocks = {tau: _composition(rng, n, "random") for tau in labels}
        h = {tau: _hodge(rng, blocks[tau]) for tau in labels}
        start = _position(rng, n, labels, blocks, "random")
        out.append({"part": "walk", "h": h, "start": start})
    for k in range(50):
        pshape, qshape = SDCR_SHAPES[k % len(SDCR_SHAPES)]
        pblocks, qblocks = list(pshape), list(qshape)
        rng.shuffle(pblocks)
        rng.shuffle(qblocks)
        n = sum(pblocks)
        out.append({"part": "dcoset", "w": _perm(rng, n), "P": pblocks, "Q": qblocks})
    return out


def _nu(rng, n, p, kind):
    """A matrix nu whose stable-flag count has a closed form: scalar,
    scalar plus a conjugated regular nilpotent, or a conjugated split
    semisimple matrix with the given eigenspace sizes."""
    while True:
        g = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if verify.is_invertible(g, p):
            break
    c = rng.randrange(p)
    if kind == "scalar":
        d = tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))
        mult = [n]
    elif kind == "nilpotent":
        d = tuple(tuple(c if i == j else (1 if j == i + 1 else 0) for j in range(n)) for i in range(n))
        mult = None
    else:
        mult = list(kind)
        values = rng.sample(range(p), len(mult))
        diag = [v for v, m in zip(values, mult) for _ in range(m)]
        d = tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
    nu = verify.mat_mul(verify.mat_mul(g, d, p), verify.mat_inv(g, p), p)
    return [list(row) for row in nu], mult


def _stable_flags(n, p, mult, blocks):
    """Closed-form number of (partial) flags stabilised by nu."""
    if mult is None:  # one Jordan block: a single stable flag of each type
        return 1
    if blocks is None:  # full flags: multinomial(m) * prod [m_i]_p!
        out = verify.multinomial(mult)
        for m in mult:
            out *= verify.q_factorial(m, p)
        return out
    if len(mult) == 1:  # scalar: all of G/P
        out = verify.q_factorial(n, p)
        for b in blocks:
            out //= verify.q_factorial(b, p)
        return out
    # distinct eigenvalues: stable subspaces are sums of eigenlines
    return verify.multinomial(blocks)


INCIDENCE_SLOTS = (
    # (n, p, nu kind, partial-flag blocks or None); the (4, 2) full-flag
    # calls are the slowest class and hold the tail percentile.
    (4, 2, "scalar", None), (4, 2, "nilpotent", None), (4, 2, (2, 2), None), (4, 2, (3, 1), None),
    (4, 2, "nilpotent", (2, 2)), (4, 2, "scalar", (1, 3)),
    (3, 3, (1, 1, 1), None), (3, 3, (2, 1), None), (3, 3, "nilpotent", None),
    (3, 3, (1, 1, 1), (2, 1)), (3, 3, "scalar", (1, 2)), (3, 3, "nilpotent", (1, 2)),
)


def _incidence_calls(rng):
    out = []
    for k in range(4):
        for n, p, kind, blocks in INCIDENCE_SLOTS:
            nu, mult = _nu(rng, n, p, kind)
            out.append({
                "part": "incidence", "n": n, "p": p, "nu": nu,
                "condition": "in_b" if blocks is None else "in_p",
                "space": "full_flag" if blocks is None else "partial_flag",
                "blocks": None if blocks is None else list(blocks),
                "expected": _stable_flags(n, p, mult, blocks),
            })
    return out


def library_plan(seed: int):
    rng = random.Random(seed)
    reqs = _route_triples(rng) + _library_walks_and_reps(rng) + _incidence_calls(rng)
    rng.shuffle(reqs)
    for k, spec in enumerate(reqs):
        spec["id"] = k
        spec["cls"] = spec["part"]
    return reqs
