"""Command-line front end.

One logical command per invocation; output is compact JSON on stdout by
default, or a plain-text report with --pretty.  Exit status: 0 when the
command (and every requested check) succeeded, 1 when a requested check
failed, 2 for usage and validation errors.

Permutations, block compositions and weights are passed as JSON: either
an object keyed by embedding label ({"t": [3, 1, 2]}) or a bare array,
which is shorthand for the single label "tau".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from . import companion, cosets, jsonio, roots, steinberg, weyl

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_LABEL = "tau"


class CliError(ValueError):
    pass


def _loads(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise CliError(f"{flag}: not valid JSON ({err})")


def _as_map(value, flag: str) -> Dict[str, list]:
    if isinstance(value, list):
        return {DEFAULT_LABEL: value}
    if isinstance(value, dict):
        return value
    raise CliError(f"{flag}: expected a JSON object or array")


def _int_tuples(value, flag: str) -> Dict[str, Tuple[int, ...]]:
    out = {}
    for tau, vec in _as_map(value, flag).items():
        if not isinstance(vec, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in vec
        ):
            raise CliError(f"{flag}: value at {tau!r} must be an array of integers")
        out[tau] = tuple(vec)
    return out


def _parse_perm(text: str, flag: str) -> weyl.MultiPerm:
    data = _int_tuples(_loads(text, flag), flag)
    try:
        return weyl.check_multi(data)
    except ValueError as err:
        raise CliError(f"{flag}: {err}")


def _parse_blocks(text: str, flag: str) -> roots.ParabolicSpec:
    data = _int_tuples(_loads(text, flag), flag)
    try:
        return roots.check_spec(data)
    except ValueError as err:
        raise CliError(f"{flag}: {err}")


def _parse_weight(text: str, flag: str) -> roots.IntegralWeight:
    return _int_tuples(_loads(text, flag), flag)


def _emit(payload, pretty: bool, lines: Optional[List[str]] = None) -> None:
    if pretty and lines is not None:
        print("\n".join(lines))
    else:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=True))


def _fmt_perm(w: weyl.MultiPerm) -> str:
    return "; ".join(f"{tau}: {list(w[tau])}" for tau in sorted(w))


# ---------------------------------------------------------------------------
# subcommands

def cmd_weyl(args) -> int:
    w = _parse_perm(args.perm, "--perm")
    word = weyl.multi_reduced_word(w)
    payload = {
        "perm": jsonio.perm_to_json(w),
        "length": weyl.multi_length(w),
        "inverse": jsonio.perm_to_json(weyl.multi_inverse(w)),
        "reduced_word": [{"tau": tau, "i": i} for tau, i in word],
    }
    lines = [
        f"perm       {_fmt_perm(w)}",
        f"length     {payload['length']}",
        f"inverse    {_fmt_perm(weyl.multi_inverse(w))}",
        "word       " + (" ".join(f"s_{i}({tau})" for tau, i in word) or "(empty)"),
    ]
    if args.other:
        v = _parse_perm(args.other, "--other")
        product = weyl.multi_compose(w, v)
        payload["compose"] = jsonio.perm_to_json(product)
        payload["leq_other"] = weyl.multi_bruhat_leq(w, v)
        payload["geq_other"] = weyl.multi_bruhat_leq(v, w)
        lines += [
            f"compose    {_fmt_perm(product)}",
            f"leq other  {payload['leq_other']}",
            f"geq other  {payload['geq_other']}",
        ]
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def cmd_coset(args) -> int:
    w = _parse_perm(args.perm, "--perm")
    spec = _parse_blocks(args.blocks, "--blocks")
    rep, inside = cosets.decompose(w, spec)
    coset = cosets.CosetRep(w, spec)
    payload = {
        "perm": jsonio.perm_to_json(w),
        "blocks": jsonio.spec_to_json(spec),
        "min_rep": jsonio.perm_to_json(rep),
        "levi_part": jsonio.perm_to_json(inside),
        "lg": coset.lg,
        "is_min_rep": cosets.is_min_rep(w, spec),
    }
    lines = [
        f"perm       {_fmt_perm(w)}",
        f"blocks     {_fmt_perm(spec)}",
        f"min rep    {_fmt_perm(rep)}",
        f"levi part  {_fmt_perm(inside)}",
        f"lg_P       {coset.lg}",
        f"is min rep {payload['is_min_rep']}",
    ]
    if args.other:
        v = cosets.CosetRep(_parse_perm(args.other, "--other"), spec)
        payload["leq_other"] = cosets.quotient_leq(coset, v)
        payload["geq_other"] = cosets.quotient_leq(v, coset)
        lines += [
            f"leq other  {payload['leq_other']}",
            f"geq other  {payload['geq_other']}",
        ]
    if args.qblocks:
        qspec = _parse_blocks(args.qblocks, "--qblocks")
        double = cosets.shortest_double_coset_rep(w, qspec, spec)
        payload["double_coset_rep"] = jsonio.perm_to_json(double)
        lines.append(f"double rep {_fmt_perm(double)}")
    if args.enumerate:
        quotient = cosets.enumerate_quotient(spec)
        payload["quotient"] = [jsonio.coset_to_json(c) for c in quotient]
        lines.append(f"quotient   {len(quotient)} cosets")
        lines += [f"  lg={c.lg}  {_fmt_perm(c.rep)}" for c in quotient]
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def cmd_steinberg(args) -> int:
    spec = _parse_blocks(args.blocks, "--blocks")
    qspec = _parse_blocks(args.qblocks, "--qblocks")
    payload = {
        "blocks": jsonio.spec_to_json(spec),
        "q_blocks": jsonio.spec_to_json(qspec),
    }
    lines = [f"P blocks   {_fmt_perm(spec)}", f"Q blocks   {_fmt_perm(qspec)}"]
    if args.perm:
        w = _parse_perm(args.perm, "--perm")
        coset = cosets.CosetRep(w, spec)
        root_route = steinberg.component_in_ZQP_roots(coset, spec, qspec)
        payload["perm"] = jsonio.perm_to_json(w)
        payload["levi_cap_u_in_nQ"] = steinberg.levi_cap_u_in_nQ(w, spec, qspec)
        payload["defect"] = steinberg.z_dimension_defect(w, spec, qspec)
        payload["component_in_ZQP_roots"] = root_route
        lines += [
            f"perm       {_fmt_perm(w)}",
            f"double-coset condition {payload['levi_cap_u_in_nQ']} (defect {payload['defect']})",
            f"root route {root_route}",
        ]
        if args.h:
            h = _parse_weight(args.h, "--h")
            dominance_route = steinberg.component_in_ZQP(coset, spec, qspec, h)
            payload["component_in_ZQP"] = dominance_route
            payload["routes_agree"] = root_route == dominance_route
            lines += [
                f"h route    {dominance_route}",
                f"agree      {payload['routes_agree']}",
            ]
    if args.list_components:
        comps = steinberg.steinberg_components_full_flag(qspec)
        payload["full_flag_components"] = [jsonio.perm_to_json(c) for c in comps]
        lines.append(f"components {len(comps)}")
        lines += [f"  {_fmt_perm(c)}" for c in comps]
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def cmd_companion(args) -> int:
    sc = jsonio.load_scenario(args.scenario)
    h = sc.hodge_weights
    lam, spec = companion.weights_from_hodge(h)
    w_R = sc.start_coset(spec)
    pairs = companion.companion_set(sc.refinement, h, w_R)
    payload = {
        "rank": sc.rank,
        "blocks": jsonio.spec_to_json(spec),
        "algebraic_weight": jsonio.weight_to_json(lam),
        "position": jsonio.coset_to_json(w_R),
        "companions": [
            {"coset": jsonio.coset_to_json(w), "character": jsonio.character_to_json(c)}
            for w, c in pairs
        ],
        "count": len(pairs),
    }
    lines = [
        f"rank       {sc.rank}",
        f"blocks     {_fmt_perm(spec)}",
        f"weight     {_fmt_perm(lam)}",
        f"position   {_fmt_perm(w_R.rep)}  (lg={w_R.lg})",
        f"companions {len(pairs)}",
    ]
    for w, c in pairs:
        lines.append(
            f"  lg={w.lg}  {_fmt_perm(w.rep)}  twisted weight {_fmt_perm(c.algebraic_weight)}"
        )
    status = EXIT_OK
    if all(place.values is not None for place in sc.refinement.places):
        generic = companion.genericity_check(sc.refinement)
        payload["generic"] = generic
        lines.append(f"generic    {generic}")
        if not generic:
            status = EXIT_CHECK_FAILED
    if sc.character_weight is not None:
        found = companion.relative_position(sc.character_weight, h)
        payload["relative_position"] = jsonio.coset_to_json(found)
        lines.append(f"located    {_fmt_perm(found.rep)}  (lg={found.lg})")
    if args.jordan_holder:
        ideal = companion.jordan_holder_cosets(w_R)
        payload["jordan_holder"] = [jsonio.coset_to_json(c) for c in ideal]
        lines.append(f"jordan-holder ideal: {len(ideal)} cosets")
        lines += [f"  lg={c.lg}  {_fmt_perm(c.rep)}" for c in ideal]
    _emit(payload, args.pretty, lines)
    return status


def cmd_walk(args) -> int:
    if args.scenario:
        sc = jsonio.load_scenario(args.scenario)
        h = sc.hodge_weights
        spec = companion.hodge_spec(h)
        start = sc.start_coset(spec)
    elif args.h:
        h = _parse_weight(args.h, "--h")
        spec = companion.hodge_spec(h)
        if args.perm:
            start = cosets.CosetRep(_parse_perm(args.perm, "--perm"), spec)
        else:
            start = cosets.CosetRep(
                weyl.multi_identity({tau: len(v) for tau, v in h.items()}), spec
            )
    else:
        raise CliError("walk: pass --scenario or --h")
    cert = companion.certify_walk(start, h)
    payload = jsonio.certificate_to_json(cert)
    payload["length"] = len(cert.chain)
    lines = [
        f"start      {_fmt_perm(cert.start.rep)}  (lg={cert.start.lg})",
        f"end        {_fmt_perm(cert.end.rep)}  (lg={cert.end.lg})",
        f"steps      {len(cert.chain)}",
    ]
    for step in cert.chain:
        lines.append(
            f"  s_{step.alpha.i}({step.alpha.tau}): {_fmt_perm(step.w_from.rep)}"
            f" -> {_fmt_perm(step.w_to.rep)}"
        )
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def cmd_ff_verify(args) -> int:
    # only this command needs the oracle, so only it pays for the import
    from . import fforacle

    n, p = args.n, args.p
    checks: Optional[List[str]] = None
    if args.suite != "all":
        checks = [name.strip() for name in args.suite.split(",") if name.strip()]
    if args.scenario:
        sc = jsonio.load_scenario(args.scenario)
        if sc.ff is not None:
            n, p = sc.ff
        if sc.checks is not None:
            checks = list(sc.checks)
    if n is None or p is None:
        raise CliError("ff-verify: pass --n and --p (or a scenario with an ff field)")
    rows = fforacle.run_suite(n, p, checks)
    ok = all(row["pass"] for row in rows)
    payload = {"n": n, "p": p, "results": rows, "pass": ok}
    lines = [f"finite-field suite at n={n}, p={p}"]
    for row in rows:
        if row.get("skipped"):
            tag = "SKIP"
        else:
            tag = "PASS" if row["pass"] else "FAIL"
        lines.append(
            f"{tag}  {row['check']:<17} params={json.dumps(row['params'], sort_keys=True)}"
            f" expected={row['expected']} observed={row['observed']}"
        )
    lines.append("all passed" if ok else "FAILURES present")
    _emit(payload, args.pretty, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylflags",
        description="Weyl group, parabolic coset and flag-variety calculations "
        "with finite-field brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--pretty", action="store_true", help="plain-text report")
        sp.set_defaults(func=func)
        return sp

    sp = add("weyl", cmd_weyl, "length, reduced word, inverse, composition, Bruhat order")
    sp.add_argument("--perm", required=True, help="JSON permutation (one-line form)")
    sp.add_argument("--other", help="second permutation for compose / Bruhat comparison")

    sp = add("coset", cmd_coset, "parabolic quotient W/W_P: minimal reps, lg_P, order")
    sp.add_argument("--perm", required=True, help="JSON permutation")
    sp.add_argument("--blocks", required=True, help="JSON block composition for P")
    sp.add_argument("--other", help="second permutation for quotient comparison")
    sp.add_argument("--qblocks", help="block composition for a double coset Q\\W/P")
    sp.add_argument("--enumerate", action="store_true", help="list the whole quotient")

    sp = add("steinberg", cmd_steinberg, "component criteria for the Q-locus")
    sp.add_argument("--blocks", required=True, help="JSON block composition for P")
    sp.add_argument("--qblocks", required=True, help="JSON block composition for Q")
    sp.add_argument("--perm", help="JSON permutation indexing the component")
    sp.add_argument("--h", help="P-regular antidominant weight (JSON)")
    sp.add_argument(
        "--list-components", action="store_true", help="list full-flag components in the Q-locus"
    )

    sp = add("companion", cmd_companion, "companion characters from a scenario file")
    sp.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    sp.add_argument(
        "--jordan-holder", action="store_true", help="also list the lower coset ideal"
    )

    sp = add("walk", cmd_walk, "certified covering-step walk up to the top coset")
    sp.add_argument("--scenario", help="path to a scenario JSON file")
    sp.add_argument("--h", help="antidominant weight (JSON) when no scenario is given")
    sp.add_argument("--perm", help="starting permutation (default: identity)")

    sp = add("ff-verify", cmd_ff_verify, "exhaustive finite-field check suite")
    sp.add_argument("--suite", default="all", help="'all' or comma-separated check names")
    sp.add_argument("--n", type=int, help="matrix size")
    sp.add_argument("--p", type=int, help="prime field size")
    sp.add_argument("--scenario", help="scenario file carrying ff parameters / checks")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, jsonio.ScenarioError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
