import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from weylflags import cli, fforacle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def base_scenario(**overrides):
    data = {
        "places": [
            {
                "label": "v",
                "q": 3,
                "embeddings": ["t"],
                "hodge_weights": {"t": [1, 1, 2]},
                "refinement_order": ["phi1", "phi2", "phi3"],
                "eigenvalues": {"phi1": "1", "phi2": "5", "phi3": "28"},
            }
        ],
        "position": {"t": [1, 3, 2]},
    }
    data.update(overrides)
    return data


def test_weyl_basic(capsys):
    code, payload, _ = run_json(capsys, "weyl", "--perm", "[3,2,1]")
    assert code == 0
    assert payload["length"] == 3
    assert payload["inverse"] == {"tau": [3, 2, 1]}
    assert payload["reduced_word"] == [
        {"tau": "tau", "i": 1},
        {"tau": "tau", "i": 2},
        {"tau": "tau", "i": 1},
    ]


def test_weyl_compare(capsys):
    code, payload, _ = run_json(
        capsys, "weyl", "--perm", "[2,1,3]", "--other", "[3,2,1]"
    )
    assert code == 0
    assert payload["compose"] == {"tau": [3, 1, 2]}
    assert payload["leq_other"] is True
    assert payload["geq_other"] is False


def test_weyl_multi_factor_input(capsys):
    code, payload, _ = run_json(
        capsys, "weyl", "--perm", '{"a": [2,1], "b": [1,3,2]}'
    )
    assert code == 0
    assert payload["length"] == 2


def test_weyl_pretty_output(capsys):
    code, out, _ = run(capsys, "weyl", "--perm", "[3,2,1]", "--pretty")
    assert code == 0
    assert "length     3" in out
    assert "word       s_1(tau) s_2(tau) s_1(tau)" in out


def test_weyl_rejects_bad_perm(capsys):
    code, _, err = run(capsys, "weyl", "--perm", "[1,1,2]")
    assert code == 2
    assert "--perm" in err
    code, _, err = run(capsys, "weyl", "--perm", "not json")
    assert code == 2


def test_coset_subcommand(capsys):
    code, payload, _ = run_json(
        capsys,
        "coset",
        "--perm",
        "[3,2,1]",
        "--blocks",
        "[2,1]",
        "--other",
        "[1,2,3]",
        "--qblocks",
        "[1,2]",
        "--enumerate",
    )
    assert code == 0
    assert payload["min_rep"] == {"tau": [2, 3, 1]}
    assert payload["levi_part"] == {"tau": [2, 1, 3]}
    assert payload["lg"] == 2
    assert payload["is_min_rep"] is False
    assert payload["leq_other"] is False
    assert payload["geq_other"] is True
    assert payload["double_coset_rep"] == {"tau": [2, 3, 1]}
    assert [c["lg"] for c in payload["quotient"]] == [0, 1, 2]


def test_steinberg_subcommand_routes_agree(capsys):
    code, payload, _ = run_json(
        capsys,
        "steinberg",
        "--blocks",
        "[2,1]",
        "--qblocks",
        "[2,1]",
        "--perm",
        "[1,3,2]",
        "--h",
        "[0,0,1]",
    )
    assert code == 0
    assert payload["levi_cap_u_in_nQ"] is True
    assert payload["component_in_ZQP_roots"] is False
    assert payload["component_in_ZQP"] is False
    assert payload["routes_agree"] is True
    assert payload["defect"] == 0


def test_steinberg_list_components(capsys):
    code, payload, _ = run_json(
        capsys,
        "steinberg",
        "--blocks",
        "[1,1,1]",
        "--qblocks",
        "[2,1]",
        "--list-components",
    )
    assert code == 0
    comps = payload["full_flag_components"]
    assert len(comps) == 3
    assert {"tau": [2, 1, 3]} in comps


def test_steinberg_rejects_bad_h(capsys):
    code, _, err = run(
        capsys,
        "steinberg",
        "--blocks",
        "[2,1]",
        "--qblocks",
        "[2,1]",
        "--perm",
        "[1,3,2]",
        "--h",
        "[0,1,2]",
    )
    assert code == 2
    assert "P-regular" in err


def test_steinberg_h_of_wrong_rank_exits_two(capsys):
    code, out, err = run(
        capsys,
        "steinberg",
        "--blocks",
        "[2,1]",
        "--qblocks",
        "[3]",
        "--perm",
        "[1,3,2]",
        "--h",
        "[0,0]",
    )
    assert code == 2
    assert out == ""
    assert "shapes differ" in err
    assert "Traceback" not in err


def test_companion_generic_scenario(capsys, tmp_path):
    path = write_scenario(tmp_path, base_scenario())
    code, payload, _ = run_json(capsys, "companion", "--scenario", path)
    assert code == 0
    assert payload["rank"] == 3
    assert payload["blocks"] == {"t": [2, 1]}
    assert payload["count"] == 2
    weights = [c["character"]["algebraic_weight"] for c in payload["companions"]]
    assert weights == [{"t": [1, 3, 3]}, {"t": [2, 2, 3]}]
    assert payload["generic"] is True


def test_companion_non_generic_exits_one(capsys, tmp_path):
    data = base_scenario()
    data["places"][0]["eigenvalues"] = {"phi1": "1", "phi2": "3", "phi3": "28"}
    path = write_scenario(tmp_path, data)
    code, payload, _ = run_json(capsys, "companion", "--scenario", path)
    assert code == 1
    assert payload["generic"] is False


def test_companion_locates_character_weight(capsys, tmp_path):
    data = base_scenario()
    data["character_weight"] = {"t": [2, 1, 1]}
    path = write_scenario(tmp_path, data)
    code, payload, _ = run_json(capsys, "companion", "--scenario", path, "--jordan-holder")
    assert code == 0
    assert payload["relative_position"]["rep"] == {"t": [2, 3, 1]}
    assert [c["lg"] for c in payload["jordan_holder"]] == [0, 1]


def test_companion_without_eigenvalues_skips_genericity(capsys, tmp_path):
    data = base_scenario()
    del data["places"][0]["eigenvalues"]
    path = write_scenario(tmp_path, data)
    code, payload, _ = run_json(capsys, "companion", "--scenario", path)
    assert code == 0
    assert "generic" not in payload


def test_companion_invalid_scenario_exits_two(capsys, tmp_path):
    path = write_scenario(tmp_path, {})
    code, _, err = run(capsys, "companion", "--scenario", path)
    assert code == 2
    assert "scenario: missing required field 'places'" in err


def test_companion_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "companion", "--scenario", str(tmp_path / "nope.json"))
    assert code == 2


def test_companion_directory_scenario_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "companion", "--scenario", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_ff_verify_bad_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("WEYLFLAGS_FF_MAX_N", "abc")
    code, out, err = run(capsys, "ff-verify", "--suite", "point_count", "--n", "2", "--p", "3")
    assert code == 2
    assert out == ""
    assert "WEYLFLAGS_FF_MAX_N" in err


def test_coset_enumerate_over_the_quotient_cap_exits_two():
    # 11! cosets: refused from the multinomial before any enumeration
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("WEYLFLAGS_MAX_QUOTIENT", None)
    argv = ["coset", "--perm", json.dumps(list(range(1, 12))), "--blocks", json.dumps([1] * 11), "--enumerate"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "weylflags.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "WEYLFLAGS_MAX_QUOTIENT" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 1.0


def test_quotient_cap_applies_to_every_enumerating_subcommand(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("WEYLFLAGS_MAX_QUOTIENT", "2")
    path = write_scenario(tmp_path, base_scenario())  # W/W_P has 3 cosets
    for argv in (
        ["coset", "--perm", "[1,2,3]", "--blocks", "[1,1,1]", "--enumerate"],
        ["steinberg", "--blocks", "[1,1,1]", "--qblocks", "[1,1,1]", "--list-components"],
        ["companion", "--scenario", path],
        ["companion", "--scenario", path, "--jordan-holder"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "WEYLFLAGS_MAX_QUOTIENT" in err
    monkeypatch.setenv("WEYLFLAGS_MAX_QUOTIENT", "3")
    code, out, err = run(capsys, "companion", "--scenario", path, "--jordan-holder")
    assert code == 0
    monkeypatch.setenv("WEYLFLAGS_MAX_QUOTIENT", "x")
    code, out, err = run(capsys, "coset", "--perm", "[1,2]", "--blocks", "[1,1]", "--enumerate")
    assert code == 2 and "WEYLFLAGS_MAX_QUOTIENT" in err


def test_walk_from_h(capsys):
    code, payload, _ = run_json(capsys, "walk", "--h", "[0,0,1]")
    assert code == 0
    assert payload["start"]["rep"] == {"tau": [1, 2, 3]}
    assert payload["end"]["rep"] == {"tau": [2, 3, 1]}
    assert payload["length"] == 2
    steps = payload["chain"]
    assert [s["to"]["lg"] for s in steps] == [1, 2]
    for s in steps:
        assert s["alpha"]["j"] == s["alpha"]["i"] + 1


def test_walk_from_scenario(capsys, tmp_path):
    path = write_scenario(tmp_path, base_scenario())
    code, payload, _ = run_json(capsys, "walk", "--scenario", path)
    assert code == 0
    assert payload["start"]["rep"] == {"t": [1, 3, 2]}
    assert payload["length"] == 1


def test_walk_needs_some_input(capsys):
    code, _, err = run(capsys, "walk")
    assert code == 2
    assert "pass --scenario or --h" in err


def test_ff_verify_all_small(capsys):
    code, payload, _ = run_json(capsys, "ff-verify", "--suite", "all", "--n", "2", "--p", "3")
    assert code == 0
    assert payload["pass"] is True
    assert {row["check"] for row in payload["results"]} == {
        "point_count",
        "incidence_zero",
        "shortest_element",
        "covering_degree",
        "fiber_dimension",
        "weight_map",
        "blowup",
        "good_form",
    }


def test_ff_verify_named_checks(capsys):
    code, payload, _ = run_json(
        capsys, "ff-verify", "--suite", "point_count,blowup", "--n", "3", "--p", "3"
    )
    assert code == 0
    assert [row["check"] for row in payload["results"]] == ["point_count", "blowup"]


def test_ff_verify_pretty_lines(capsys):
    code, out, _ = run(capsys, "ff-verify", "--suite", "point_count", "--n", "2", "--p", "2", "--pretty")
    assert code == 0
    assert "PASS  point_count" in out
    assert "all passed" in out


def test_ff_verify_scenario_parameters(capsys, tmp_path):
    data = base_scenario(ff={"n": 2, "p": 3}, checks=["point_count", "covering_degree"])
    path = write_scenario(tmp_path, data)
    code, payload, _ = run_json(capsys, "ff-verify", "--scenario", path)
    assert code == 0
    assert payload["n"] == 2 and payload["p"] == 3
    assert {row["check"] for row in payload["results"]} == {"point_count", "covering_degree"}


def test_ff_verify_requires_parameters(capsys):
    code, _, err = run(capsys, "ff-verify", "--suite", "all")
    assert code == 2
    assert "pass --n and --p" in err


def test_ff_verify_out_of_bounds_exits_two(capsys):
    code, _, err = run(capsys, "ff-verify", "--suite", "all", "--n", "9", "--p", "2")
    assert code == 2
    assert "enumeration cap" in err


@pytest.mark.parametrize("suite", [",", " , ,", ""])
def test_ff_verify_empty_selection_exits_two(capsys, suite):
    code, out, err = run(capsys, "ff-verify", "--n", "2", "--p", "3", "--suite", suite)
    assert code == 2
    assert out == ""
    assert "no checks selected" in err
    assert "Traceback" not in err


def test_ff_verify_huge_p_exits_two(capsys):
    # refused by the cap before the primality test, which would overflow
    # converting p to a float (or, for a large prime, never finish)
    code, out, err = run(capsys, "ff-verify", "--n", "2", "--p", str(10**400))
    assert code == 2
    assert out == ""
    assert "enumeration cap" in err


# fuzzing: every input ends in exit 0, 1 or 2 with no traceback

_LABEL = st.sampled_from(["tau", "t", "u", ""])
_ENTRY = st.one_of(
    st.integers(-2, 5), st.booleans(), st.floats(-3, 3), st.text(max_size=2), st.none()
)
_VECTOR = st.one_of(
    st.integers(1, 3).flatmap(lambda k: st.permutations(range(1, k + 1))).map(list),
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
    st.lists(st.integers(-1, 4), max_size=5),
    st.lists(_ENTRY, max_size=4),
)
_JSON_ARG = st.one_of(
    # bare arrays twice, so that valid inputs reach the commands often
    _VECTOR.map(json.dumps),
    _VECTOR.map(json.dumps),
    st.dictionaries(_LABEL, _VECTOR, max_size=2).map(json.dumps),
    _ENTRY.map(json.dumps),
    st.sampled_from(["", "[", "[1,2", '{"t": [1,', "nope", "[1,2]]", "{}", "[]"]),
)
_SUITE = st.one_of(
    st.lists(st.sampled_from(fforacle.SUITE_CHECKS + ("bogus", "", " ")), max_size=3).map(",".join),
    st.sampled_from(["all", ",", ",,", " , "]),
)


def _options(draw, *flags):
    out = []
    for flag in flags:
        if draw(st.booleans()):
            out += [flag] if flag in ("--pretty", "--enumerate", "--list-components", "--jordan-holder") else [flag, draw(_JSON_ARG)]
    return out


# the file path that the fuzz test substitutes for the written scenario
_SCENARIO = "<scenario>"
_EIGENVALUE = st.one_of(
    st.sampled_from(["1", "3", "5", "28", "1/3", "-2"]), st.sampled_from(["0", "1/0", "x", "", "2.5"])
)


@st.composite
def _place(draw, k, n):
    order = [f"phi{k}_{j}" for j in range(n)]
    place = {
        "label": f"v{k}",
        "q": draw(st.integers(2, 7)),
        "embeddings": [f"t{k}"],
        "hodge_weights": {f"t{k}": sorted(draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)))},
        "refinement_order": order,
    }
    if draw(st.booleans()):
        place["eigenvalues"] = {label: draw(_EIGENVALUE) for label in order}
    return place


@st.composite
def _scenario_file(draw):
    """Scenario file bytes: valid, with one field changed or dropped, or
    not a scenario at all."""
    kind = draw(st.sampled_from(["valid", "valid", "near", "malformed"]))
    if kind == "malformed":
        return draw(st.one_of(
            st.sampled_from([b"", b"{", b"[]", b"null", b'{"places": [', b"\xff\xfe", b'{"places": []}']),
            st.binary(max_size=8),
        ))
    n = draw(st.integers(1, 4))
    places = [draw(_place(k, n)) for k in range(draw(st.integers(1, 2)))]
    embeddings = [place["embeddings"][0] for place in places]
    data = {"places": places}
    if draw(st.booleans()):
        data["position"] = {tau: list(draw(st.permutations(range(1, n + 1)))) for tau in embeddings}
    if draw(st.booleans()):
        # sometimes a rearrangement of the hodge weights, as relative_position wants
        data["character_weight"] = {
            tau: draw(st.one_of(
                st.permutations(place["hodge_weights"][tau]).map(list),
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            ))
            for tau, place in zip(embeddings, places)
        }
    if kind == "near":
        target = draw(st.sampled_from([data] + places))
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if key in target and draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(st.one_of(_ENTRY, _VECTOR, st.dictionaries(_LABEL, _VECTOR, max_size=2)))
    return json.dumps(data).encode()


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["weyl", "coset", "steinberg", "walk", "ff-verify", "companion"]))
    if command == "companion":
        return ["companion", "--scenario", _SCENARIO] + _options(draw, "--jordan-holder", "--pretty")
    if command == "weyl":
        return ["weyl", "--perm", draw(_JSON_ARG)] + _options(draw, "--other", "--pretty")
    if command == "coset":
        return ["coset", "--perm", draw(_JSON_ARG), "--blocks", draw(_JSON_ARG)] + _options(
            draw, "--other", "--qblocks", "--enumerate", "--pretty"
        )
    if command == "steinberg":
        return ["steinberg", "--blocks", draw(_JSON_ARG), "--qblocks", draw(_JSON_ARG)] + _options(
            draw, "--perm", "--h", "--list-components", "--pretty"
        )
    if command == "walk":
        return ["walk"] + _options(draw, "--h", "--perm", "--pretty")
    n = draw(st.one_of(st.integers(1, 2), st.integers(max_value=2)))
    p = draw(st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers()))
    argv = ["ff-verify", "--n", str(n), "--p", str(p)]
    if draw(st.booleans()):
        argv += ["--suite", draw(_SUITE)]
    return argv


@settings(derandomize=True, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv(), scenario=_scenario_file())
@example(argv=["ff-verify", "--n", "2", "--p", "3", "--suite", ","], scenario=b"")
@example(argv=["ff-verify", "--n", "2", "--p", str(10**400)], scenario=b"")
def test_cli_fuzz_keeps_the_exit_contract(capsys, tmp_path, argv, scenario):
    path = tmp_path / "scenario.json"
    path.write_bytes(scenario)
    argv = [str(path) if arg == _SCENARIO else arg for arg in argv]
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the command line
        assert exc.code == 2
        code = 2
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:  # a failed check: a suite row, or a non-generic companion scenario
        assert argv[0] in ("ff-verify", "companion")
        if argv[0] == "companion" and "--pretty" not in argv:
            assert json.loads(out)["generic"] is False
    if code == 0 and argv[0] == "ff-verify":
        assert json.loads(out)["results"]
