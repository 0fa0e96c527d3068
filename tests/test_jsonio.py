import json
from fractions import Fraction

import pytest

import oracles
from weylflags import cli, jsonio
from weylflags.companion import PlaceRefinement, RefinementSpec, certify_walk, companion_set
from weylflags.cosets import CosetRep, enumerate_quotient
from weylflags.jsonio import ScenarioError, load_scenario, parse_scenario
from weylflags.roots import Root, p_regular_witness
from weylflags.steinberg import InductionStep


def scenario_dict(**overrides):
    base = {
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
    base.update(overrides)
    return base


def test_encoders_shapes():
    assert jsonio.root_to_json(Root("t", 1, 3)) == {"tau": "t", "i": 1, "j": 3}
    coset = CosetRep({"t": (3, 1, 2)}, {"t": (2, 1)})
    encoded = jsonio.coset_to_json(coset)
    # the coset's own maps, not copies
    assert encoded == {"rep": {"t": (1, 3, 2)}, "blocks": {"t": (2, 1)}, "lg": 1}
    assert encoded["rep"] is coset.rep and encoded["blocks"] is coset.spec


def test_step_encoder():
    spec = {"t": (1, 1, 1)}
    step = InductionStep(
        alpha=Root("t", 1, 2),
        Q={"t": (2, 1)},
        w_from=CosetRep({"t": (1, 2, 3)}, spec),
        w_to=CosetRep({"t": (2, 1, 3)}, spec),
    )
    out = jsonio.step_to_json(step)
    assert out["alpha"] == {"tau": "t", "i": 1, "j": 2}
    assert out["q_blocks"] == {"t": (2, 1)}
    assert out["from"]["rep"] == {"t": (1, 2, 3)}
    assert out["to"]["rep"] == {"t": (2, 1, 3)}


def test_serialized_values_reparse_to_equal_values():
    coset = CosetRep({"t": (3, 1, 2)}, {"t": (2, 1)})
    encoded = json.loads(cli._json(jsonio.coset_to_json(coset)))
    rebuilt = CosetRep(
        {tau: tuple(v) for tau, v in encoded["rep"].items()},
        {tau: tuple(v) for tau, v in encoded["blocks"].items()},
    )
    assert rebuilt == coset
    assert rebuilt.lg == encoded["lg"]


def test_encoders_write_what_the_copying_encoders_wrote():
    # cli._json of each encoder's output, over every coset, character and
    # walk of the quotients of oracles.listing_specs
    refinement = RefinementSpec((PlaceRefinement("v", 3, ("t",), ("x", "y")),))
    for spec in oracles.listing_specs():
        h = p_regular_witness(spec)
        quotient = enumerate_quotient(spec)
        for c in quotient:
            assert cli._json(jsonio.coset_to_json(c)) == cli._json(oracles.coset_to_json(c)), c
        for _, c in companion_set(refinement, h, quotient[0]):
            assert cli._json(jsonio.character_to_json(c)) == cli._json(oracles.character_to_json(c)), c
        cert = certify_walk(quotient[0], h)
        assert cli._json(jsonio.certificate_to_json(cert)) == cli._json(oracles.certificate_to_json(cert))


def test_parse_scenario_happy_path():
    sc = parse_scenario(scenario_dict())
    assert sc.rank == 3
    assert sc.hodge_weights == {"t": (1, 1, 2)}
    assert sc.position == {"t": (1, 3, 2)}
    assert sc.refinement.places[0].q == 3
    assert sc.refinement.places[0].values == (Fraction(1), Fraction(5), Fraction(28))
    start = sc.start_coset({"t": (2, 1)})
    assert start.rep == {"t": (1, 3, 2)}


def test_start_coset_defaults_to_longest():
    data = scenario_dict()
    del data["position"]
    sc = parse_scenario(data)
    assert sc.position is None
    assert sc.start_coset({"t": (2, 1)}).rep == {"t": (2, 3, 1)}


def test_two_places_share_global_rank():
    data = {
        "places": [
            {
                "label": "v",
                "q": 3,
                "embeddings": ["a"],
                "hodge_weights": {"a": [0, 1]},
                "refinement_order": ["x1", "x2"],
            },
            {
                "label": "w",
                "q": 5,
                "embeddings": ["b", "c"],
                "hodge_weights": {"b": [0, 0], "c": [1, 4]},
                "refinement_order": ["y1", "y2"],
            },
        ]
    }
    sc = parse_scenario(data)
    assert sc.rank == 2
    assert sorted(sc.hodge_weights) == ["a", "b", "c"]


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d.pop("places"), "scenario: missing required field 'places'"),
        (lambda d: d.update(extra=1), "unknown field 'extra'"),
        (lambda d: d["places"][0].pop("q"), "scenario.places[0]: missing required field 'q'"),
        (lambda d: d["places"][0].update(q=1), "scenario.places[0].q"),
        (
            lambda d: d["places"][0].update(hodge_weights={"t": [2, 1, 1]}),
            "scenario.places[0].hodge_weights.t",
        ),
        (
            lambda d: d["places"][0].update(hodge_weights={"s": [1, 1, 2]}),
            "scenario.places[0].hodge_weights",
        ),
        (
            lambda d: d["places"][0].update(eigenvalues={"phi1": "1"}),
            "scenario.places[0].eigenvalues",
        ),
        (
            lambda d: d["places"][0]["eigenvalues"].update(phi2="5/0"),
            "scenario.places[0].eigenvalues.phi2",
        ),
        # Fraction would take these; an exponent this large would not finish
        (
            lambda d: d["places"][0]["eigenvalues"].update(phi2="1e999999999"),
            "scenario.places[0].eigenvalues.phi2: cannot parse '1e999999999'",
        ),
        (
            lambda d: d["places"][0]["eigenvalues"].update(phi3="2.5"),
            "scenario.places[0].eigenvalues.phi3: cannot parse '2.5'",
        ),
        (lambda d: d.update(position={"t": [1, 1, 2]}), "scenario.position.t"),
        (lambda d: d.update(position={"s": [1, 2, 3]}), "scenario.position"),
        (lambda d: d.update(character_weight={"t": [1, 2]}), "scenario.character_weight.t"),
        (
            lambda d: d["places"][0].update(hodge_weights={"t": [1, 1]}),
            "scenario.places[0].hodge_weights.t: expected 3 entries",
        ),
        (
            lambda d: d.update(character_weight=[1, 2, 3]),
            "scenario.character_weight: expected an object keyed by embedding label",
        ),
        (lambda d: d.update(checks=["point_count"]), "unknown field 'checks'"),
        (lambda d: d.update(ff={"n": 2, "p": 3}), "unknown field 'ff'"),
    ],
)
def test_parse_scenario_errors_name_json_paths(mutate, path_fragment):
    data = scenario_dict()
    mutate(data)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert path_fragment in str(err.value)


def test_duplicate_embeddings_across_places_rejected():
    data = scenario_dict()
    data["places"].append(
        {
            "label": "w",
            "q": 5,
            "embeddings": ["t"],
            "hodge_weights": {"t": [0, 0, 0]},
            "refinement_order": ["a", "b", "c"],
        }
    )
    del data["position"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "scenario.places[1].embeddings" in str(err.value)


def test_rank_mismatch_between_places_rejected():
    data = scenario_dict()
    data["places"].append(
        {
            "label": "w",
            "q": 5,
            "embeddings": ["s"],
            "hodge_weights": {"s": [0, 0]},
            "refinement_order": ["a", "b"],
        }
    )
    del data["position"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert "scenario.places[1].refinement_order" in str(err.value)


def test_load_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert "not valid JSON" in str(err.value)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(scenario_dict()))
    sc = load_scenario(good)
    assert sc.rank == 3


def test_scenario_matches_published_schema():
    # the shipped schema file must accept the canonical example shape
    import pathlib

    schema_path = pathlib.Path(__file__).resolve().parent.parent / "schema" / "scenario.json"
    schema = json.loads(schema_path.read_text())
    assert schema["type"] == "object"
    assert set(schema["required"]) == {"places"}
    assert set(schema["properties"]) == {"places", "position", "character_weight"}
    place_props = schema["properties"]["places"]["items"]["properties"]
    assert set(place_props) >= {
        "label",
        "q",
        "embeddings",
        "hodge_weights",
        "refinement_order",
        "eigenvalues",
    }
