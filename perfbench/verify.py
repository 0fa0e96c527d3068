"""Reference math and response checks for the benchmark.

Nothing here imports weylflags: every expected value is worked out from
first principles (inversion counts, block sorting, multinomials, rank
matrices, q-factorials), so a check cannot inherit a library bug.  Checks
compare named fields, never bytes, so a later version that adds fields to
a response still passes.

Every ``check_*`` function returns a list of problems; an empty list means
the response is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

Perm = tuple


# ---------------------------------------------------------------------------
# permutations (one-line, 1-indexed) and parabolic quotients

def inv_count(w) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def compose(u, v) -> Perm:
    """(u o v)(i) = u(v(i))."""
    return tuple(u[x - 1] for x in v)


def inverse(w) -> Perm:
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        out[x - 1] = i
    return tuple(out)


def block_sort(w, blocks) -> Perm:
    """Minimal representative of w W_P: sort the values inside each block."""
    out, start = [], 0
    for size in blocks:
        out.extend(sorted(w[start:start + size]))
        start += size
    return tuple(out)


def left_block_sort(w, blocks) -> Perm:
    """Minimal representative of W_Q w."""
    return inverse(block_sort(inverse(w), blocks))


def longest(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def bruhat_leq(u, v) -> bool:
    """Rank-matrix criterion: #{a <= i : u(a) >= j} <= the same count for v."""
    n = len(u)
    cu = [0] * (n + 2)
    cv = [0] * (n + 2)
    for i in range(n):
        for j in range(1, u[i] + 1):
            cu[j] += 1
        for j in range(1, v[i] + 1):
            cv[j] += 1
        if any(cu[j] > cv[j] for j in range(1, n + 1)):
            return False
    return True


def multinomial(blocks) -> int:
    out = math.factorial(sum(blocks))
    for b in blocks:
        out //= math.factorial(b)
    return out


def double_coset_signature(w, qblocks, pblocks):
    """W_Q w W_P is fixed by how many positions of each P-block w sends
    into each Q-block."""
    qof = [q for q, size in enumerate(qblocks) for _ in range(size)]
    pof = [b for b, size in enumerate(pblocks) for _ in range(size)]
    sig = [[0] * len(pblocks) for _ in qblocks]
    for k, x in enumerate(w):
        sig[qof[x - 1]][pof[k]] += 1
    return sig


def runs(vec) -> tuple:
    """Block sizes of the maximal equal runs of a weakly increasing vector."""
    out, run = [], 1
    for a, b in zip(vec, vec[1:]):
        if b == a:
            run += 1
        else:
            out.append(run)
            run = 1
    out.append(run)
    return tuple(out)


def act(w, x) -> tuple:
    """Place action (w.x)_i = x_{w^-1(i)}."""
    winv = inverse(w)
    return tuple(x[winv[i] - 1] for i in range(len(x)))


def strictly_dominant(x, blocks) -> bool:
    start = 0
    for size in blocks:
        for i in range(start, start + size - 1):
            if x[i] - x[i + 1] <= 0:
                return False
        start += size
    return True


def block_witness(blocks, offset: int = 0) -> tuple:
    """A P-regular antidominant weight: constant on blocks, increasing."""
    return tuple(offset + b for b, size in enumerate(blocks) for _ in range(size))


def twist(x) -> tuple:
    return tuple(a + i for i, a in enumerate(x))


# ---------------------------------------------------------------------------
# finite-field closed forms

def q_factorial(n: int, p: int) -> int:
    out = 1
    for k in range(1, n + 1):
        out *= sum(p ** i for i in range(k))
    return out


def fubini(n: int) -> int:
    """Ordered set partitions of n: the number of (blocks, w in W^P) pairs."""
    return sum(multinomial(c) for c in compositions(n))


def compositions(n: int):
    if n == 0:
        return [()]
    return [(f,) + rest for f in range(1, n + 1) for rest in compositions(n - f)]


def mat_mul(a, b, p):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a)


def mat_inv(a, p):
    n = len(a)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if work[r][c] % p)
        work[c], work[piv] = work[piv], work[c]
        f = pow(work[c][c], p - 2, p)
        work[c] = [x * f % p for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                g = work[r][c]
                work[r] = [(x - g * y) % p for x, y in zip(work[r], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def is_invertible(a, p) -> bool:
    try:
        mat_inv(a, p)
    except StopIteration:
        return False
    return True


# ---------------------------------------------------------------------------
# response parsing shared by the CLI checks

def parse_cli(code: int, stdout: bytes, stderr: bytes, expect_code: int):
    """Decode a CLI response; returns (payload or None, problems)."""
    problems = []
    if b"Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if code != expect_code:
        problems.append(f"exit code {code}, expected {expect_code}")
    try:
        payload = json.loads(stdout)
    except ValueError as err:
        return None, problems + [f"unparsable stdout: {err}"]
    if not isinstance(payload, dict):
        return None, problems + ["stdout is not a JSON object"]
    return payload, problems


def _perm_map(obj):
    return {tau: tuple(v) for tau, v in obj.items()}


def _coset_problems(obj, blocks_map, where):
    """A coset_to_json object must be a block-sorted rep with matching lg."""
    out = []
    rep = _perm_map(obj["rep"])
    if _perm_map(obj["blocks"]) != blocks_map:
        out.append(f"{where}: blocks {obj['blocks']} != {blocks_map}")
    for tau, w in rep.items():
        if block_sort(w, blocks_map[tau]) != w:
            out.append(f"{where}: rep {w} at {tau} is not a minimal representative")
    if obj["lg"] != sum(inv_count(w) for w in rep.values()):
        out.append(f"{where}: lg {obj['lg']} is not the inversion count")
    return out


def _multi_leq(u, v) -> bool:
    return all(bruhat_leq(u[tau], v[tau]) for tau in u)


def _min_rep_map(w, blocks_map):
    return {tau: block_sort(w[tau], blocks_map[tau]) for tau in w}


def quotient_size(blocks_map) -> int:
    """|W/W_P| for a label -> blocks map."""
    return math.prod(multinomial(b) for b in blocks_map.values())


def _coset_list_problems(items, blocks_map, where):
    """A sorted list of distinct cosets of one quotient."""
    out = []
    seen = set()
    last_lg = -1
    for k, obj in enumerate(items):
        out += _coset_problems(obj, blocks_map, f"{where}[{k}]")
        key = tuple(sorted((tau, tuple(v)) for tau, v in obj["rep"].items()))
        if key in seen:
            out.append(f"{where}[{k}]: duplicate coset")
        seen.add(key)
        if obj["lg"] < last_lg:
            out.append(f"{where}[{k}]: not sorted by lg")
        last_lg = obj["lg"]
        if len(out) > 5:
            break
    return out


# ---------------------------------------------------------------------------
# per-subcommand checks; ``spec`` is the request as the generator wrote it

def check_weyl(spec, payload):
    out = []
    w = _perm_map(spec["perm"])
    if _perm_map(payload["perm"]) != w:
        out.append("perm echo differs")
    if payload["length"] != sum(inv_count(x) for x in w.values()):
        out.append("length is not the inversion count")
    if _perm_map(payload["inverse"]) != {tau: inverse(x) for tau, x in w.items()}:
        out.append("inverse is wrong")
    cur = {tau: list(range(1, len(x) + 1)) for tau, x in w.items()}
    for letter in payload["reduced_word"]:
        row = cur[letter["tau"]]
        i = letter["i"]
        row[i - 1], row[i] = row[i], row[i - 1]
    if {tau: tuple(x) for tau, x in cur.items()} != w:
        out.append("reduced word does not multiply to perm")
    if len(payload["reduced_word"]) != payload["length"]:
        out.append("reduced word is not reduced")
    if "other" in spec:
        v = _perm_map(spec["other"])
        if _perm_map(payload["compose"]) != {tau: compose(w[tau], v[tau]) for tau in w}:
            out.append("compose is wrong")
        if payload["leq_other"] != _multi_leq(w, v):
            out.append("leq_other is wrong")
        if payload["geq_other"] != _multi_leq(v, w):
            out.append("geq_other is wrong")
    return out


def check_coset(spec, payload):
    out = []
    w = _perm_map(spec["perm"])
    blocks = _perm_map(spec["blocks"])
    rep = _min_rep_map(w, blocks)
    if _perm_map(payload["min_rep"]) != rep:
        out.append("min_rep is not the block sort")
    levi = _perm_map(payload["levi_part"])
    if {tau: compose(rep[tau], levi[tau]) for tau in w} != w:
        out.append("min_rep . levi_part != perm")
    if payload["lg"] != sum(inv_count(x) for x in rep.values()):
        out.append("lg is not the inversion count of the minimal rep")
    if payload["is_min_rep"] != (rep == w):
        out.append("is_min_rep is wrong")
    if "other" in spec:
        v = _min_rep_map(_perm_map(spec["other"]), blocks)
        if payload["leq_other"] != _multi_leq(rep, v) or payload["geq_other"] != _multi_leq(v, rep):
            out.append("quotient comparison is wrong")
    if "qblocks" in spec:
        qblocks = _perm_map(spec["qblocks"])
        r = _perm_map(payload["double_coset_rep"])
        for tau in w:
            if block_sort(r[tau], blocks[tau]) != r[tau] or left_block_sort(r[tau], qblocks[tau]) != r[tau]:
                out.append(f"double_coset_rep at {tau} is not in W^P n ^QW")
            if double_coset_signature(r[tau], qblocks[tau], blocks[tau]) != double_coset_signature(
                w[tau], qblocks[tau], blocks[tau]
            ):
                out.append(f"double_coset_rep at {tau} lies in another double coset")
    if spec.get("enumerate"):
        quotient = payload["quotient"]
        if len(quotient) != quotient_size(blocks):
            out.append(f"quotient has {len(quotient)} cosets, expected {quotient_size(blocks)}")
        out += _coset_list_problems(quotient, blocks, "quotient")
    return out


def check_steinberg(spec, payload):
    out = []
    pblocks = _perm_map(spec["blocks"])
    qblocks = _perm_map(spec["qblocks"])
    if "perm" in spec:
        w = _min_rep_map(_perm_map(spec["perm"]), pblocks)
        if payload["defect"] < 0 or payload["levi_cap_u_in_nQ"] != (payload["defect"] == 0):
            out.append("defect and levi_cap_u_in_nQ disagree")
        if "h" in spec:
            h = _perm_map(spec["h"])
            mine = all(strictly_dominant(act(w[tau], h[tau]), qblocks[tau]) for tau in w)
            if payload["component_in_ZQP"] != mine:
                out.append("component_in_ZQP is not strict Q-dominance of w(h)")
            if payload["routes_agree"] is not True or payload["component_in_ZQP_roots"] != mine:
                out.append("the root route disagrees with the dominance route")
    if spec.get("list_components"):
        comps = payload["full_flag_components"]
        if len(comps) != quotient_size(qblocks):
            out.append(f"{len(comps)} components, expected {quotient_size(qblocks)}")
        seen = set()
        for k, c in enumerate(comps):
            c = _perm_map(c)
            for tau, x in c.items():
                wq0 = block_reverse(qblocks[tau])
                rest = compose(inverse(wq0), x)
                if left_block_sort(rest, qblocks[tau]) != rest:
                    out.append(f"component {k} is not w_Q0 times an element of ^QW")
                    break
            seen.add(tuple(sorted(c.items())))
            if len(out) > 5:
                break
        if len(seen) != len(comps):
            out.append("duplicate components")
    return out


def block_reverse(blocks) -> Perm:
    """w_{Q,0}: reverse each block."""
    out, start = [], 1
    for size in blocks:
        out.extend(range(start + size - 1, start - 1, -1))
        start += size
    return tuple(out)


def _places_generic(places) -> bool:
    for place in places:
        vals = [Fraction(v) for v in place["eigenvalues"].values()]
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                if i != j and (a / b == 1 or a / b == place["q"]):
                    return False
    return True


def check_companion(spec, payload):
    out = []
    scenario = spec["scenario"]
    h = {}
    for place in scenario["places"]:
        for tau in place["embeddings"]:
            h[tau] = tuple(place["hodge_weights"][tau])
    n = len(next(iter(h.values())))
    blocks = {tau: runs(v) for tau, v in h.items()}
    if payload["rank"] != n or _perm_map(payload["blocks"]) != blocks:
        out.append("rank or blocks differ from the hodge weights")
    lam = {tau: tuple(v[n - i] + i - 1 for i in range(1, n + 1)) for tau, v in h.items()}
    if _perm_map(payload["algebraic_weight"]) != lam:
        out.append("algebraic_weight is wrong")
    if "position" in scenario:
        start = _min_rep_map(_perm_map(scenario["position"]), blocks)
    else:
        start = _min_rep_map({tau: longest(n) for tau in h}, blocks)
    top = _min_rep_map({tau: longest(n) for tau in h}, blocks)
    if _perm_map(payload["position"]["rep"]) != start:
        out.append("position is not the minimal representative of the start")
    comps = payload["companions"]
    if payload["count"] != len(comps):
        out.append("count != number of companions")
    cosets = [c["coset"] for c in comps]
    out += _coset_list_problems(cosets, blocks, "companions")
    if not cosets or _perm_map(cosets[0]["rep"]) != start or _perm_map(cosets[-1]["rep"]) != top:
        out.append("companions do not run from the start to the top coset")
    if start == _min_rep_map({tau: tuple(range(1, n + 1)) for tau in h}, blocks):
        if len(comps) != quotient_size(blocks):
            out.append("companions above the identity coset are not the whole quotient")
    smooth = [{"place": pl["label"], "labels": pl["refinement_order"]} for pl in scenario["places"]]
    for k, c in enumerate(comps):
        w = _perm_map(c["coset"]["rep"])
        if not _multi_leq(start, w):
            out.append(f"companion {k} is not above the start")
        ch = c["character"]
        if _perm_map(ch["algebraic_weight"]) != {tau: twist(act(w[tau], h[tau])) for tau in h}:
            out.append(f"companion {k} has the wrong twisted weight")
        if ch["smooth_labels"] != smooth or ch["twisted"] is not True:
            out.append(f"companion {k} has the wrong smooth part")
        if len(out) > 5:
            break
    if all("eigenvalues" in pl for pl in scenario["places"]):
        if payload.get("generic") != _places_generic(scenario["places"]):
            out.append("generic flag is wrong")
    if spec.get("jordan_holder"):
        ideal = payload["jordan_holder"]
        out += _coset_list_problems(ideal, blocks, "jordan_holder")
        for k, c in enumerate(ideal):
            if not _multi_leq(_perm_map(c["rep"]), start):
                out.append(f"jordan_holder {k} is not below the start")
                break
        if not ideal or _perm_map(ideal[-1]["rep"]) != start:
            out.append("jordan_holder does not end at the start coset")
        if start == top and len(ideal) != quotient_size(blocks):
            out.append("the ideal below the top coset is not the whole quotient")
    return out


def check_walk(spec, payload):
    out = []
    h = _perm_map(spec["h"])
    n = len(next(iter(h.values())))
    blocks = {tau: runs(v) for tau, v in h.items()}
    start = _min_rep_map(_perm_map(spec["start"]), blocks)
    top = _min_rep_map({tau: longest(n) for tau in h}, blocks)
    lg = lambda w: sum(inv_count(x) for x in w.values())  # noqa: E731
    if _perm_map(payload["start"]["rep"]) != start or _perm_map(payload["end"]["rep"]) != top:
        out.append("walk does not run from the start to the top coset")
    chain = payload["chain"]
    if payload["length"] != len(chain) or len(chain) != lg(top) - lg(start):
        out.append(f"walk length {payload['length']} != lg(top) - lg(start) = {lg(top) - lg(start)}")
    cur = start
    for k, step in enumerate(chain):
        a = step["alpha"]
        frm, to = _perm_map(step["from"]["rep"]), _perm_map(step["to"]["rep"])
        if frm != cur or a["j"] != a["i"] + 1:
            out.append(f"step {k} does not continue the chain with a simple root")
            break
        moved = dict(frm)
        x = list(moved[a["tau"]])
        x = [a["j"] if v == a["i"] else a["i"] if v == a["j"] else v for v in x]
        moved[a["tau"]] = tuple(x)
        if _min_rep_map(moved, blocks) != to or step["to"]["lg"] != step["from"]["lg"] + 1:
            out.append(f"step {k} is not a covering step s_alpha . w")
            break
        cur = to
    return out


CLI_CHECKS = {
    "weyl": check_weyl,
    "coset": check_coset,
    "steinberg": check_steinberg,
    "companion": check_companion,
    "walk": check_walk,
}


def check_cli_response(spec, code, stdout, stderr):
    payload, problems = parse_cli(code, stdout, stderr, spec["expect_code"])
    if payload is None:
        return problems
    try:
        problems += CLI_CHECKS[spec["kind"]](spec, payload)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as err:
        problems.append(f"malformed response: {type(err).__name__}: {err}")
    return problems


# ---------------------------------------------------------------------------
# ff-verify

def check_ff_row(row, n, p):
    """Problems with one non-skipped ff-verify row, judged by closed forms."""
    check, params = row["check"], row["params"]
    out = []
    if row["pass"] is not True:
        out.append(f"{check} failed at {params}")
    if check in ("point_count", "incidence_zero"):
        if row["expected"] != q_factorial(n, p) or row["observed"] != q_factorial(n, p):
            out.append(f"{check}: expected/observed != [n]_p! = {q_factorial(n, p)}")
    elif check == "covering_degree":
        want = multinomial(params["blocks"])
        if row["expected"] != want or row["observed"] != want:
            out.append(f"covering_degree at {params['blocks']}: expected/observed != {want}")
    elif check == "fiber_dimension":
        w, blocks = tuple(params["w"]), tuple(params["blocks"])
        want = p ** (n * (n + 1) // 2 - inv_count(w))
        if block_sort(w, blocks) != w:
            out.append(f"fiber_dimension row at non-minimal w {w}")
        observed = row["observed"]
        if row["expected"] != want or set(observed) != {str(want)} or min(observed.values()) < 1:
            out.append(f"fiber_dimension at {w}: histogram {observed} != {{{want}: pairs}}")
    elif row["expected"] is not True or row["observed"] is not True:
        out.append(f"{check}: expected/observed not both true")
    return out


# ---------------------------------------------------------------------------
# library-inproc responses (plain data extracted from the returned objects)

def check_route(spec, roots_route, dominance_route):
    w = block_sort(tuple(spec["w"]), spec["P"])
    mine = strictly_dominant(act(w, spec["h"]), spec["Q"])
    if roots_route is not mine or dominance_route is not mine:
        return [f"routes {roots_route}/{dominance_route} != strict Q-dominance {mine}"]
    return []


def check_dcoset(spec, r):
    w, pblocks, qblocks = tuple(spec["w"]), spec["P"], spec["Q"]
    out = []
    if block_sort(r, pblocks) != r or left_block_sort(r, qblocks) != r:
        out.append(f"{r} is not in W^P n ^QW")
    if double_coset_signature(r, qblocks, pblocks) != double_coset_signature(w, qblocks, pblocks):
        out.append(f"{r} lies in another double coset than {w}")
    return out


def check_incidence(spec, count, witnesses, by_cell_total):
    if count != spec["expected"] or witnesses != count or by_cell_total != count:
        return [f"incidence count {count} (witnesses {witnesses}, cells {by_cell_total}) != {spec['expected']}"]
    return []


FF_CHECKS = (
    "point_count",
    "incidence_zero",
    "shortest_element",
    "covering_degree",
    "fiber_dimension",
    "weight_map",
    "blowup",
    "good_form",
)


def check_ff_response(spec, code, stdout, stderr):
    """Returns (problems, verified) where verified is the set of
    (check, n, p) with at least one row that ran and passed."""
    n, p = spec["n"], spec["p"]
    payload, problems = parse_cli(code, stdout, stderr, 0)
    verified = set()
    if payload is None:
        return problems, verified
    try:
        if payload["n"] != n or payload["p"] != p or payload["pass"] is not True:
            problems.append("header differs or suite failed")
        rows_by_check = {}
        for row in payload["results"]:
            rows_by_check.setdefault(row["check"], []).append(row)
        if set(rows_by_check) != set(FF_CHECKS):
            problems.append(f"checks reported {sorted(rows_by_check)} != {sorted(FF_CHECKS)}")
        for check, rows in rows_by_check.items():
            ran = [r for r in rows if not r.get("skipped")]
            if not ran:
                continue
            want_rows = {"covering_degree": 2 ** (n - 1), "fiber_dimension": fubini(n), "weight_map": fubini(n)}
            if len(ran) != want_rows.get(check, 1):
                problems.append(f"{check}: {len(ran)} rows, expected {want_rows.get(check, 1)}")
            row_problems = [msg for r in ran for msg in check_ff_row(r, n, p)]
            problems += row_problems
            if not row_problems:
                verified.add((check, n, p))
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        problems.append(f"malformed response: {type(err).__name__}: {err}")
    return problems, verified
