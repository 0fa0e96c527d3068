import json
import os
import subprocess
import sys
import time

import pytest

from weylflags import cli


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
