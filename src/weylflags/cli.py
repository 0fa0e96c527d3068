"""Command-line front end.

One logical command per invocation; each builds one JSON payload and
prints it as compact JSON on stdout, or with --pretty as a plain-text
report of the same fields: one line per field in key order, a list as
its length followed by one indented line per item, values as compact
JSON.  Exit status: 0 when the command (and every requested check)
succeeded, 1 when a requested check failed, 2 for usage and validation
errors, flags that would go unread included.

Permutations, block compositions and weights are passed as JSON: either
an object keyed by embedding label ({"t": [3, 1, 2]}) or a bare array,
which is shorthand for the single label "tau".

One flag table (_commands) describes every command.  A well-formed command
line (the command, then whole flag names, each value flag once with a
value not starting with "-", int values that convert, every required flag
present) is read from that table directly, without importing argparse.
Anything else goes to the argparse parser built from the same table:
--help, abbreviations, --flag=value, negative values, and every refusal,
with argparse's own text and exit code.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

# each handler imports the modules it answers from, so a light request
# pays for no others
from . import weyl

if TYPE_CHECKING:  # build_parser imports it when called
    import argparse

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_LABEL = "tau"


class CliError(ValueError):
    pass


def _parse(text: str, flag: str, check: Optional[Callable] = None):
    """A JSON flag value as a label-keyed map of integer tuples, passed
    through check (weyl.check_multi, roots.check_spec) when given; a check
    that fits the value to another flag's shape makes the refusal name it."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        raise CliError(f"{flag}: not valid JSON ({err})")
    except RecursionError:
        raise CliError(f"{flag}: JSON nested too deeply to decode") from None
    if isinstance(value, list):
        value = {DEFAULT_LABEL: value}
    elif not isinstance(value, dict):
        raise CliError(f"{flag}: expected a JSON object or array")
    out = {}
    for tau, vec in value.items():
        if not isinstance(vec, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in vec):
            raise CliError(f"{flag}: value at {tau!r} must be an array of integers")
        out[tau] = tuple(vec)
    if check is None:
        return out
    try:
        return check(out)
    except ValueError as err:
        raise CliError(f"{flag}: {err}")


def _load_scenario(path: str):
    """The scenario file at path; its refusals are usage errors, as a flag's are."""
    from . import jsonio

    try:
        return jsonio.load_scenario(path)
    except jsonio.ScenarioError as err:
        raise CliError(str(err)) from err


def _json(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True, check_circular=False)  # payloads are fresh trees


def _emit(payload: dict, pretty: bool) -> None:
    """Print the payload as compact JSON, or as the report described above."""
    if not pretty:
        print(_json(payload))
        return
    width = max(map(len, payload))
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list):
            lines.append(f"{key:<{width}}  {len(value)}")
            lines += [f"  {_json(item)}" for item in value]
        else:
            lines.append(f"{key:<{width}}  {_json(value)}")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands

def cmd_weyl(args) -> int:
    w = _parse(args.perm, "--perm", weyl.check_multi)
    payload = {
        "perm": w,
        "length": weyl.multi_length(w),
        "inverse": weyl.multi_inverse(w),
        "reduced_word": [{"tau": tau, "i": i} for tau, i in weyl.multi_reduced_word(w)],
    }
    if args.other:
        v, composed = _parse(args.other, "--other", lambda v: (v, weyl.multi_compose(w, weyl.check_multi(v))))
        payload["compose"] = composed
        payload["leq_other"] = weyl.multi_bruhat_leq(w, v)
        payload["geq_other"] = weyl.multi_bruhat_leq(v, w)
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_coset(args) -> int:
    from . import cosets, roots

    w = _parse(args.perm, "--perm", weyl.check_multi)
    spec = _parse(args.blocks, "--blocks", lambda s: roots.check_spec(s, weyl.shape_of(w)))
    rep, inside = cosets.decompose(w, spec)
    coset = cosets.CosetRep(w, spec)
    payload = {
        "perm": w,
        "blocks": spec,
        "min_rep": rep,
        "levi_part": inside,
        "lg": coset.lg,
        "is_min_rep": rep == w,
    }
    if args.other:
        v = _parse(args.other, "--other", lambda v: cosets.CosetRep(v, spec))
        payload["leq_other"] = cosets.quotient_leq(coset, v)
        payload["geq_other"] = cosets.quotient_leq(v, coset)
    if args.qblocks:
        qspec = _parse(args.qblocks, "--qblocks", lambda q: roots.check_spec(q, weyl.shape_of(w)))
        double = cosets.shortest_double_coset_rep(w, qspec, spec)
        payload["double_coset_rep"] = double
    if args.enumerate:
        from . import jsonio

        payload["quotient"] = [jsonio.coset_to_json(c) for c in cosets.enumerate_quotient(spec)]
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_steinberg(args) -> int:
    from . import cosets, roots, steinberg

    if args.h and not args.perm:
        raise CliError("steinberg: --h needs --perm")
    spec = _parse(args.blocks, "--blocks", roots.check_spec)
    shape = {tau: sum(blocks) for tau, blocks in spec.items()}
    qspec = _parse(args.qblocks, "--qblocks", lambda q: roots.check_spec(q, shape))
    payload = {"blocks": spec, "q_blocks": qspec}
    if args.perm:
        w, coset = _parse(args.perm, "--perm", lambda w: (w, cosets.CosetRep(w, spec)))
        root_route = steinberg.component_in_ZQP_roots(coset, spec, qspec)
        payload["perm"] = w
        payload["levi_cap_u_in_nQ"] = steinberg.levi_cap_u_in_nQ(w, spec, qspec)
        payload["defect"] = steinberg.z_dimension_defect(w, spec, qspec)
        payload["component_in_ZQP_roots"] = root_route
        if args.h:
            h = _parse(args.h, "--h", lambda h: steinberg.check_p_regular(h, spec))
            dominance_route = steinberg.component_in_ZQP(coset, spec, qspec, h)
            payload["component_in_ZQP"] = dominance_route
            payload["routes_agree"] = root_route == dominance_route
    if args.list_components:
        payload["full_flag_components"] = steinberg.steinberg_components_full_flag(qspec)
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_companion(args) -> int:
    from . import companion, jsonio

    sc = _load_scenario(args.scenario)
    h = sc.hodge_weights
    lam, spec = companion.weights_from_hodge(h)
    w_R = sc.start_coset(spec)
    pairs = companion.companion_set(sc.refinement, h, w_R)
    payload = {
        "rank": sc.rank,
        "blocks": spec,
        "algebraic_weight": lam,
        "position": jsonio.coset_to_json(w_R),
        "companions": [
            {"coset": jsonio.coset_to_json(w), "character": jsonio.character_to_json(c)}
            for w, c in pairs
        ],
        "count": len(pairs),
    }
    status = EXIT_OK
    if all(place.values is not None for place in sc.refinement.places):
        payload["generic"] = companion.genericity_check(sc.refinement)
        if not payload["generic"]:
            status = EXIT_CHECK_FAILED
    if sc.character_weight is not None:
        found = companion.relative_position(sc.character_weight, h)
        payload["relative_position"] = jsonio.coset_to_json(found)
    if args.jordan_holder:
        ideal = companion.jordan_holder_cosets(w_R)
        payload["jordan_holder"] = [jsonio.coset_to_json(c) for c in ideal]
    _emit(payload, args.pretty)
    return status


def cmd_walk(args) -> int:
    from . import companion, cosets, jsonio

    if args.scenario:
        extra = [flag for flag, value in (("--h", args.h), ("--perm", args.perm)) if value]
        if extra:
            raise CliError(f"walk: --scenario takes no {' or '.join(extra)}")
        sc = _load_scenario(args.scenario)
        h = sc.hodge_weights
        spec = companion.hodge_spec(h)
        start = sc.start_coset(spec)
    elif args.h:
        # the spec is derived inside the check, so its refusals name --h
        h, spec = _parse(args.h, "--h", lambda h: (h, companion.hodge_spec(h)))
        if args.perm:
            start = _parse(args.perm, "--perm", lambda w: cosets.CosetRep(w, spec))
        else:
            start = cosets.CosetRep(weyl.multi_identity(weyl.shape_of(h)), spec)
    else:
        raise CliError("walk: pass --scenario or --h")
    cert = companion.certify_walk(start, h)
    payload = jsonio.certificate_to_json(cert)
    payload["length"] = len(cert.chain)
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_ff_verify(args) -> int:
    from . import fforacle

    names = None
    if args.suite not in (None, "all"):
        names = [name.strip() for name in args.suite.split(",") if name.strip()]
    rows = fforacle.run_suite(args.n, args.p, names)
    ok = all(row["pass"] for row in rows)
    _emit({"n": args.n, "p": args.p, "results": rows, "pass": ok}, args.pretty)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# the command line

_PRETTY = ("--pretty", bool, False, "plain-text report")


def _commands():
    """command -> (handler, help, flags), in --help order; each flag is
    (name, type, required, help), type str, int or bool for a switch, and
    every command also takes _PRETTY first.  Built on each call, so that a
    handler rebound in this module (as perfbench's tracing does) is the
    one dispatched."""
    return {
        "weyl": (cmd_weyl, "length, reduced word, inverse, composition, Bruhat order", (
            ("--perm", str, True, "JSON permutation (one-line form)"),
            ("--other", str, False, "second permutation for compose / Bruhat comparison"),
        )),
        "coset": (cmd_coset, "parabolic quotient W/W_P: minimal reps, lg_P, order", (
            ("--perm", str, True, "JSON permutation"),
            ("--blocks", str, True, "JSON block composition for P"),
            ("--other", str, False, "second permutation for quotient comparison"),
            ("--qblocks", str, False, "block composition for a double coset Q\\W/P"),
            ("--enumerate", bool, False, "list the whole quotient"),
        )),
        "steinberg": (cmd_steinberg, "component criteria for the Q-locus", (
            ("--blocks", str, True, "JSON block composition for P"),
            ("--qblocks", str, True, "JSON block composition for Q"),
            ("--perm", str, False, "JSON permutation indexing the component"),
            ("--h", str, False, "P-regular antidominant weight (JSON)"),
            ("--list-components", bool, False, "list full-flag components in the Q-locus"),
        )),
        "companion": (cmd_companion, "companion characters from a scenario file", (
            ("--scenario", str, True, "path to a scenario JSON file"),
            ("--jordan-holder", bool, False, "also list the lower coset ideal"),
        )),
        "walk": (cmd_walk, "certified covering-step walk up to the top coset", (
            ("--scenario", str, False, "path to a scenario JSON file"),
            ("--h", str, False, "antidominant weight (JSON) when no scenario is given"),
            ("--perm", str, False, "starting permutation (default: identity)"),
        )),
        "ff-verify": (cmd_ff_verify, "exhaustive finite-field check suite", (
            ("--suite", str, False, "'all' (the default) or comma-separated check names"),
            ("--n", int, True, "matrix size"),
            ("--p", int, True, "prime field size"),
        )),
    }


def _parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """What build_parser().parse_args(argv) returns, for a command line in
    canonical form: a known command, then whole flag names, each value
    flag once with a value that does not start with "-", int values that
    convert, every required flag present.  None for anything else."""
    commands = _commands()
    if not argv or argv[0] not in commands:
        return None
    func, _, flags = commands[argv[0]]
    table = {name: (name[2:].replace("-", "_"), kind, required) for name, kind, required, _ in (_PRETTY,) + flags}
    args = {dest: False if kind is bool else None for dest, kind, _ in table.values()}
    rest = iter(argv[1:])
    for name in rest:
        if name not in table:
            return None
        dest, kind, _ = table[name]
        if kind is bool:
            args[dest] = True
            continue
        value = next(rest, "-")
        if value.startswith("-") or args[dest] is not None:
            return None
        try:
            args[dest] = kind(value)
        except ValueError:
            return None
    if any(required and args[dest] is None for dest, _, required in table.values()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **args)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the same table: the path for --help,
    abbreviations and every command line refused."""
    import argparse

    class _Once(argparse.Action):
        """Store a value flag, refusing a second one: the first would go unread."""

        def __call__(self, parser, namespace, values, option_string=None):
            if getattr(namespace, self.dest) is not None:
                raise CliError(f"{option_string}: given more than once")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="weylflags",
        description="Weyl group, parabolic coset and flag-variety calculations "
        "with finite-field brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, flags) in _commands().items():
        sp = sub.add_parser(command, help=help_text)
        sp.set_defaults(func=func)
        for name, kind, required, flag_help in (_PRETTY,) + flags:
            if kind is bool:
                sp.add_argument(name, action="store_true", help=flag_help)
            else:
                sp.add_argument(name, action=_Once, type=kind, required=required, help=flag_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
