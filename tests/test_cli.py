import hashlib
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


def parse_report(out):
    """A --pretty report as {field: (value, items)}: a field line is the
    key, padding and a compact JSON value (a list field's value is its
    length); each indented line is an item of the list field above it."""
    fields = {}
    for line in out.splitlines():
        if line.startswith("  "):
            fields[key][1].append(json.loads(line[2:]))
        else:
            key, value = line.split(None, 1)
            assert key not in fields, key
            fields[key] = (json.loads(value), [])
    assert list(fields) == sorted(fields)
    return fields


def assert_report_renders(out, payload):
    """The report out reads back as exactly the payload: a list field as
    its length and its items, any other field as its JSON value."""
    expected = {
        key: (len(value), value) if isinstance(value, list) else (value, [])
        for key, value in payload.items()
    }
    # compared as JSON text, which keeps true apart from 1
    assert json.dumps(parse_report(out), sort_keys=True) == json.dumps(expected, sort_keys=True)


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
    lines = out.splitlines()
    assert "length        3" in lines
    assert lines[-4:] == [
        "reduced_word  3",
        '  {"i":1,"tau":"tau"}',
        '  {"i":2,"tau":"tau"}',
        '  {"i":1,"tau":"tau"}',
    ]


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
    assert err.startswith("error: --h: ") and "P-regular" in err


def test_steinberg_h_of_wrong_rank_exits_two(capsys):
    for blocks, qblocks, perm, h, shapes in [
        ("[2,1]", "[3]", "[1,3,2]", "[0,0]", "{'tau': 2} vs {'tau': 3}"),
        ("[1,1]", "[2]", "[2,1]", "[1,0,3]", "{'tau': 3} vs {'tau': 2}"),
        ("[1,1]", "[2]", "[2,1]", "{}", "{} vs {'tau': 2}"),
    ]:
        code, out, err = run(
            capsys, "steinberg", "--blocks", blocks, "--qblocks", qblocks, "--perm", perm, "--h", h
        )
        assert (code, out) == (2, "")
        assert err == f"error: --h: shapes differ: {shapes}\n"


def test_steinberg_refuses_qblocks_of_another_shape(capsys):
    for blocks, qblocks, shapes in [
        ('{"a":[1]}', '{"b":[2]}', "{'a': 1} vs {'b': 2}"),
        ("[3]", "[1,1]", "{'tau': 3} vs {'tau': 2}"),
    ]:
        code, out, err = run(
            capsys, "steinberg", "--blocks", blocks, "--qblocks", qblocks, "--list-components"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --qblocks: shapes differ: {shapes}\n"


def test_steinberg_refuses_an_empty_spec(capsys):
    # an empty spec names no label, as an empty --perm does
    for blocks, qblocks, flag in [("{}", "{}", "--blocks"), ("[2,1]", "{}", "--qblocks")]:
        code, out, err = run(
            capsys, "steinberg", "--blocks", blocks, "--qblocks", qblocks, "--list-components"
        )
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: spec must be a non-empty label -> blocks mapping\n"


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


def test_scenario_with_ff_fields_exits_two(capsys, tmp_path):
    # ff-verify reads n, p and the suite from its flags only
    for field, value in (("ff", {"n": 2, "p": 3}), ("checks", ["point_count"])):
        path = write_scenario(tmp_path, base_scenario(**{field: value}))
        for command in ("companion", "walk"):
            code, out, err = run(capsys, command, "--scenario", path)
            assert (code, out) == (2, "")
            assert err == f"error: scenario: unknown field {field!r}\n"


def test_json_nested_too_deeply_exits_two_naming_its_source(capsys, tmp_path):
    # 60 KB of '[' fits one argv entry; json.loads would raise RecursionError
    code, out, err = run(capsys, "weyl", "--perm", "[" * 30000)
    assert (code, out) == (2, "")
    assert err == "error: --perm: JSON nested too deeply to decode\n"
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    for command in ("companion", "walk"):
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: scenario: file {path} is JSON nested too deeply to decode\n"


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
    monkeypatch.setenv("WEYLFLAGS_FF_MAX_FLAGS", "abc")
    code, out, err = run(capsys, "ff-verify", "--suite", "point_count", "--n", "2", "--p", "3")
    assert code == 2
    assert out == ""
    assert "WEYLFLAGS_FF_MAX_FLAGS" in err


def _cli_subprocess(env, *argv, timeout=120):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "weylflags.cli", *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("p, code", [(3, 0), (2, 2)])
def test_ff_verify_at_a_huge_n_answers_at_once(p, code):
    # every cap is multiplied out lazily, so n = 10^6 is decided at once:
    # at p = 3 blowup runs and every other check is skipped, at p = 2 none runs
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEYLFLAGS_")}
    proc = _cli_subprocess(env, "ff-verify", "--n", str(10**6), "--p", str(p), timeout=2)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "no check runs at n=1000000, p=2" in proc.stderr
    else:
        rows = json.loads(proc.stdout)["results"]
        assert [row["check"] for row in rows if not row.get("skipped")] == ["blowup"]


@pytest.mark.parametrize("n, p, code", [(1, 2**61 - 1, 2), (2, 2**61 - 1, 2), (1, 999999999989, 0), (2, 999999999989, 0)])
def test_ff_verify_at_a_huge_p_answers_at_once(n, p, code):
    # no cap on p is shared: trial division past 10^6 divisions is refused
    # before it starts, and each check's own gate bounds what p costs it
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEYLFLAGS_")}
    proc = _cli_subprocess(env, "ff-verify", "--n", str(n), "--p", str(p), timeout=2)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == f"invalid input: p={p} refused: primality cost sqrt(p) trial divisions > 1000000\n"
    else:
        rows = json.loads(proc.stdout)["results"]
        assert all(row["pass"] for row in rows)
        assert {row["check"]: row["observed"] for row in rows}["blowup"] == "skipped: point cost p^4 > 2500000"


def test_ff_verify_prices_blowup_by_p4():
    # (2, 79) walks 79^4 blowup points, about 38 s: a named blowup is refused
    # past the gate, and --suite all skips it and answers at once
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEYLFLAGS_")}
    proc = _cli_subprocess(env, "ff-verify", "--suite", "blowup", "--n", "2", "--p", "97", timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "invalid input: blowup refused at n=2, p=97: point cost p^4 > 2500000\n"
    proc = _cli_subprocess(env, "ff-verify", "--suite", "all", "--n", "2", "--p", "79", timeout=5)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["results"]
    assert all(row["pass"] for row in rows)
    assert [row["observed"] for row in rows if row["check"] == "blowup"] == ["skipped: point cost p^4 > 2500000"]


def test_ff_verify_warns_once_when_a_cap_is_raised():
    # every flag check reads the cap; the warning must not repeat per caller
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEYLFLAGS_") and k != "PYTHONWARNINGS"}
    proc = _cli_subprocess(dict(env, WEYLFLAGS_FF_MAX_FLAGS="40000"), "ff-verify", "--n", "2", "--p", "3")
    assert proc.returncode == 0
    assert proc.stderr.count("UserWarning") == 1


def test_ff_verify_admits_n5_p2_under_the_default_caps():
    # [5]_2! = 9,765 flags, under the default cap of 30,000
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEYLFLAGS_")}
    proc = _cli_subprocess(env, "ff-verify", "--n", "5", "--p", "2", "--suite", "point_count")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


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


def test_coset_double_rep_of_large_levis_answers_quickly():
    # |W_Q|·|W_P| = 6!^4: composing every pair would run for hours
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    one = '{"a":[1,2,3,4,5,6],"b":[1,2,3,4,5,6]}'
    six = '{"a":[6],"b":[6]}'
    proc = subprocess.run(
        [sys.executable, "-m", "weylflags.cli", "coset", "--perm", one, "--blocks", six, "--qblocks", six],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["double_coset_rep"] == json.loads(one)


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["walk", "--h", "[0,1]", "--perm", "[1,2,3]"], "--perm"),
        (["steinberg", "--blocks", "[2,1]", "--qblocks", "[2,1]", "--perm", "[2,1]"], "--perm"),
        (["coset", "--perm", "[2,1]", "--blocks", "[2,1]"], "--blocks"),
        (["coset", "--perm", "[2,1,3]", "--blocks", "[2,1]", "--other", "[1,2]"], "--other"),
        (["weyl", "--perm", "[2,1,3]", "--other", "[1,2]"], "--other"),
        (["coset", "--perm", "[2,1,3]", "--blocks", "[2,1]", "--qblocks", "[1,1]"], "--qblocks"),
    ],
)
def test_a_shape_mismatch_names_its_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: shapes differ: "), err


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
    for h, message in [
        ("{}", "weight must be a non-empty label -> vector mapping"),
        ("[]", "vector is empty"),
        ("[2,1]", "vector is not weakly increasing: (2, 1)"),
    ]:
        code, out, err = run(capsys, "walk", "--h", h)
        assert (code, out) == (2, "")
        assert err == f"error: --h: {message}\n"


def test_flags_that_would_go_unread_exit_two(capsys, tmp_path):
    path = write_scenario(tmp_path, base_scenario())
    for argv, message in (
        (["steinberg", "--blocks", "[2,1]", "--qblocks", "[2,1]", "--h", "[0,0,1]"],
         "steinberg: --h needs --perm"),
        (["walk", "--scenario", path, "--h", "[0,0,1]"], "walk: --scenario takes no --h"),
        (["walk", "--scenario", path, "--perm", "[1,2,3]"], "walk: --scenario takes no --perm"),
        (["walk", "--scenario", path, "--h", "[0,0,1]", "--perm", "[1,2,3]"],
         "walk: --scenario takes no --h or --perm"),
        # a repeated value flag would leave its first value unread
        (["weyl", "--perm", "[1,2]", "--perm", "[2,1]"], "--perm: given more than once"),
        (["ff-verify", "--n", "2", "--p", "2", "--suite", "all", "--suite", "point_count"],
         "--suite: given more than once"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n"


def test_pretty_report_renders_the_json_payload(capsys, tmp_path):
    data = base_scenario(character_weight={"t": [2, 1, 1]})
    path = write_scenario(tmp_path, data)
    for argv in (
        ["weyl", "--perm", '{"a": [2,1], "b": [1,3,2]}', "--other", '{"a": [1,2], "b": [3,2,1]}'],
        ["coset", "--perm", "[3,2,1]", "--blocks", "[2,1]", "--qblocks", "[1,2]", "--enumerate"],
        ["steinberg", "--blocks", "[2,1]", "--qblocks", "[2,1]", "--perm", "[1,3,2]", "--h", "[0,0,1]"],
        ["steinberg", "--blocks", "[1,1,1]", "--qblocks", "[2,1]", "--list-components"],
        ["companion", "--scenario", path, "--jordan-holder"],
        ["walk", "--h", "[0,0,1]"],
        ["ff-verify", "--suite", "all", "--n", "2", "--p", "2"],
    ):
        code, payload, _ = run_json(capsys, *argv)
        pretty_code, out, err = run(capsys, *argv, "--pretty")
        assert (pretty_code, err) == (code, ""), argv
        lines = out.splitlines()
        for key in payload:  # each field starts exactly one line
            assert sum(line.split(None, 1)[0] == key for line in lines) == 1, (argv, key)
        assert_report_renders(out, payload)


def test_listings_match_the_recorded_stdout(capsys, monkeypatch, tmp_path):
    # requests of every listing subcommand at rank <= 6, with and without
    # --pretty, recorded as exit code and the sha256 of stdout: any change
    # to a byte of a listing shows here
    path = os.path.join(os.path.dirname(__file__), "fixtures", "cli_listings.json")
    with open(path) as handle:
        recorded = json.load(handle)
    for name, data in recorded["scenarios"].items():
        write_scenario(tmp_path, data, f"{name}.json")
    monkeypatch.chdir(tmp_path)
    for request in recorded["requests"]:
        argv = [f"{arg}.json" if arg in recorded["scenarios"] else arg for arg in request["argv"]]
        code, out, err = run(capsys, *argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, err, digest) == (request["exit"], "", request["stdout_sha256"]), argv


def test_ff_verify_all_small(capsys):
    # (3, 11) is past p = 7, where only each check's own gate bounds p
    for n, p in (("2", "3"), ("3", "11")):
        code, payload, _ = run_json(capsys, "ff-verify", "--suite", "all", "--n", n, "--p", p)
        assert code == 0
        assert payload["pass"] is True
        assert all(row["pass"] for row in payload["results"])
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
    fields = parse_report(out)
    count, rows = fields["results"]
    assert count == len(rows) == 1
    assert rows[0]["check"] == "point_count" and rows[0]["pass"] is True
    assert "pass     true" in out.splitlines()


def test_ff_verify_requires_parameters(capsys, tmp_path):
    # --n and --p are required flags, and no scenario file stands in for them
    path = write_scenario(tmp_path, base_scenario())
    for argv, message in (
        (["--suite", "all"], "the following arguments are required: --n, --p"),
        (["--scenario", path, "--n", "2", "--p", "3"], "unrecognized arguments: --scenario"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ff-verify", *argv])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert message in err and "Traceback" not in err


def test_ff_verify_named_flag_check_over_the_cap_exits_two(capsys, monkeypatch):
    # --suite all at (9, 2) runs good_form; a flag check named there is refused
    monkeypatch.delenv("WEYLFLAGS_FF_MAX_FLAGS", raising=False)
    code, out, err = run(capsys, "ff-verify", "--suite", "point_count", "--n", "9", "--p", "2")
    assert (code, out) == (2, "")
    assert err == (
        "invalid input: point_count refused at n=9, p=2: "
        "flag count [n]_p! > 30000; WEYLFLAGS_FF_MAX_FLAGS raises it\n"
    )


def test_ff_verify_with_no_runnable_check_exits_two(capsys):
    # exit 0 means something was verified: every check refused is an error
    code, out, err = run(capsys, "ff-verify", "--n", "1000000", "--p", "2")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: no check runs at n=1000000, p=2: point_count (flag count")
    for name in fforacle.SUITE_CHECKS:
        assert f"; {name} (" in err or name == "point_count", name


@pytest.mark.parametrize("suite", [",", " , ,", ""])
def test_ff_verify_empty_selection_exits_two(capsys, suite):
    code, out, err = run(capsys, "ff-verify", "--n", "2", "--p", "3", "--suite", suite)
    assert code == 2
    assert out == ""
    assert "no checks selected" in err
    assert "Traceback" not in err


def test_ff_verify_refuses_a_check_named_twice(capsys):
    code, out, err = run(capsys, "ff-verify", "--n", "2", "--p", "3", "--suite", "point_count,point_count")
    assert (code, out) == (2, "")
    assert err == "invalid input: check 'point_count' selected twice\n"


def test_ff_verify_huge_p_exits_two(capsys):
    # refused by the primality cost before any trial division, which for a
    # large prime would never finish
    code, out, err = run(capsys, "ff-verify", "--n", "2", "--p", str(10**400))
    assert code == 2
    assert out == ""
    assert "primality cost sqrt(p) trial divisions > 1000000" in err


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


def _canonical_argv(draw):
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
    # n = 6 and 10^6 are past the flag cap, where only the flag-free checks run
    n = draw(st.one_of(st.integers(1, 2), st.integers(max_value=2), st.sampled_from([6, 10**6])))
    p = draw(st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers()))
    argv = ["ff-verify", "--n", str(n), "--p", str(p)]
    if draw(st.booleans()):
        argv += ["--suite", draw(_SUITE)]
    return argv


_SWITCHES = ("--pretty", "--enumerate", "--list-components", "--jordan-holder")
_VALUE_FLAGS = ("--perm", "--other", "--blocks", "--qblocks", "--h", "--scenario", "--suite", "--n", "--p")


def _mangle(draw, argv):
    """argv changed in one way the table parser leaves to argparse: an
    abbreviated flag, --flag=value, a repeated or dropped value flag, -h,
    a flag of another command, or a value that starts with "-"."""
    kind = draw(st.sampled_from(["abbreviate", "equals", "repeat", "drop", "help", "foreign", "dash"]))
    at = draw(st.sampled_from([1, len(argv)]))  # between flags: after the command or at the end
    if kind == "help":
        return argv[:at] + ["-h"] + argv[at:]
    if kind == "foreign":
        flag = draw(st.sampled_from(_SWITCHES + _VALUE_FLAGS))
        return argv[:at] + ([flag] if flag in _SWITCHES else [flag, draw(_JSON_ARG)]) + argv[at:]
    flags = [i for i, arg in enumerate(argv) if arg in _VALUE_FLAGS]
    if not flags:
        return argv
    i = draw(st.sampled_from(flags))
    flag, value = argv[i], argv[i + 1]
    if kind == "abbreviate" and len(flag) > 3:
        return argv[:i] + [flag[:draw(st.integers(3, len(flag) - 1))]] + argv[i + 1:]
    if kind == "equals":
        return argv[:i] + [f"{flag}={value}"] + argv[i + 2:]
    if kind == "repeat":
        return argv + [flag, value]
    if kind == "drop":
        return argv[:i] + argv[i + 2:]
    return argv[:i + 1] + [draw(st.sampled_from(["-", "-1", "--"])) + value] + argv[i + 2:]


@st.composite
def _argv(draw):
    """A command line of one command, well formed or, a third of the time, mangled."""
    argv = _canonical_argv(draw)
    return _mangle(draw, argv) if draw(st.integers(0, 2)) == 0 else argv


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
    except SystemExit as exc:  # argparse printing help (0) or rejecting the command line (2)
        assert exc.code in (0, 2)
        code = exc.code
        if code == 0:
            assert capsys.readouterr().out.startswith("usage: weylflags ")
            return
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:  # a failed check: a suite row, or a non-generic companion scenario
        assert argv[0] in ("ff-verify", "companion")
        if argv[0] == "companion" and "--pretty" in argv:
            assert parse_report(out)["generic"] == (False, [])
        elif argv[0] == "companion":
            assert json.loads(out)["generic"] is False
    if code == 0 and argv[0] == "ff-verify":
        assert json.loads(out)["results"]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(argv=_argv())
@example(argv=["ff-verify", "--n", " 2", "--p", "+3"])
@example(argv=["ff-verify", "--n", "2", "--p", "1" * 5000])
@example(argv=["coset", "--perm", "", "--blocks", "[1]", "--enumerate", "--enumerate"])
def test_the_table_parser_agrees_with_argparse(argv):
    # the table parser answers a command line only as argparse would
    args = cli._parse_args(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
