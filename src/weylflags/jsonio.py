"""JSON encoding of the library's objects and scenario-file loading.

Scenario files describe a product of places: each place carries its
residue cardinality q, embedding labels, per-embedding weakly increasing
integer weights, an ordering of eigenvalue labels, and optionally exact
eigenvalue ratios.  Optional top-level fields pin a starting coset
(``position``), a character weight to locate (``character_weight``),
check-suite selectors (``checks``) and finite-field parameters (``ff``).
Validation errors name the offending field by JSON path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Tuple

from .companion import PlaceRefinement, RefinementSpec, CharacterSymbol, CompanionCertificate
from .cosets import CosetRep
from .roots import IntegralWeight, ParabolicSpec, Root
from .steinberg import InductionStep
from .weyl import MultiPerm, check_multi, multi_longest


class ScenarioError(ValueError):
    pass


def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# encoders (plain dict/list output, ready for json.dumps)

def perm_to_json(w: MultiPerm) -> Dict[str, list]:
    """A label-keyed map of integer tuples (a multi-permutation, a weight
    or a block spec) as lists, labels sorted."""
    return {tau: list(w[tau]) for tau in sorted(w)}


weight_to_json = spec_to_json = perm_to_json


def root_to_json(alpha: Root) -> Dict[str, object]:
    return {"tau": alpha.tau, "i": alpha.i, "j": alpha.j}


def coset_to_json(w: CosetRep) -> Dict[str, object]:
    return {
        "rep": perm_to_json(w.rep),
        "blocks": spec_to_json(w.spec),
        "lg": w.lg,
    }


def step_to_json(step: InductionStep) -> Dict[str, object]:
    return {
        "alpha": root_to_json(step.alpha),
        "q_blocks": spec_to_json(step.Q),
        "from": coset_to_json(step.w_from),
        "to": coset_to_json(step.w_to),
    }


def character_to_json(c: CharacterSymbol) -> Dict[str, object]:
    return {
        "algebraic_weight": weight_to_json(c.algebraic_weight),
        "smooth_labels": [
            {"place": place, "labels": list(labels)} for place, labels in c.smooth_labels
        ],
        "twisted": c.twisted,
    }


def certificate_to_json(cert: CompanionCertificate) -> Dict[str, object]:
    return {
        "start": coset_to_json(cert.start),
        "end": coset_to_json(cert.end),
        "chain": [step_to_json(step) for step in cert.chain],
    }


def fraction_to_json(x: Fraction) -> str:
    return str(x)


# ---------------------------------------------------------------------------
# scenario loading

@dataclass(frozen=True)
class Scenario:
    refinement: RefinementSpec
    hodge_weights: IntegralWeight
    position: Optional[MultiPerm]
    character_weight: Optional[IntegralWeight]
    checks: Optional[Tuple[str, ...]]
    ff: Optional[Tuple[int, int]]

    @property
    def rank(self) -> int:
        return len(next(iter(self.hodge_weights.values())))

    def start_coset(self, spec: ParabolicSpec) -> CosetRep:
        """The pinned position, or the longest-element coset by default."""
        if self.position is not None:
            return CosetRep(self.position, spec)
        ranks = {tau: len(v) for tau, v in self.hodge_weights.items()}
        return CosetRep(multi_longest(ranks), spec)


def _require_keys(obj: dict, path: str, required, optional=()) -> None:
    for key in required:
        if key not in obj:
            _fail(path, f"missing required field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(path, f"unknown field {key!r}")


def _int_vector(value, path: str) -> Tuple[int, ...]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of integers")
    for k, x in enumerate(value):
        if not isinstance(x, int) or isinstance(x, bool):
            _fail(f"{path}[{k}]", "expected an integer")
    return tuple(value)


def _parse_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool):
        _fail(path, "expected an integer or a fraction string like '4/3'")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"cannot parse {value!r} as an exact fraction")
    _fail(path, "expected an integer or a fraction string like '4/3'")


def _parse_place(obj, path: str, n_expected: Optional[int]) -> PlaceRefinement:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    _require_keys(
        obj,
        path,
        required=("label", "q", "embeddings", "hodge_weights", "refinement_order"),
        optional=("eigenvalues",),
    )
    label = obj["label"]
    if not isinstance(label, str) or not label:
        _fail(f"{path}.label", "expected a non-empty string")
    q = obj["q"]
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        _fail(f"{path}.q", "expected an integer >= 2")
    embeddings = obj["embeddings"]
    if not isinstance(embeddings, list) or not embeddings:
        _fail(f"{path}.embeddings", "expected a non-empty array of labels")
    if any(not isinstance(tau, str) or not tau for tau in embeddings):
        _fail(f"{path}.embeddings", "labels must be non-empty strings")
    if len(set(embeddings)) != len(embeddings):
        _fail(f"{path}.embeddings", "labels must be distinct")
    order = obj["refinement_order"]
    if not isinstance(order, list) or not order:
        _fail(f"{path}.refinement_order", "expected a non-empty array of labels")
    if any(not isinstance(lbl, str) or not lbl for lbl in order):
        _fail(f"{path}.refinement_order", "labels must be non-empty strings")
    if len(set(order)) != len(order):
        _fail(f"{path}.refinement_order", "labels must be distinct")
    n = len(order)
    if n_expected is not None and n != n_expected:
        _fail(f"{path}.refinement_order", f"expected {n_expected} labels, got {n}")
    weights = obj["hodge_weights"]
    if not isinstance(weights, dict):
        _fail(f"{path}.hodge_weights", "expected an object keyed by embedding label")
    if set(weights) != set(embeddings):
        _fail(
            f"{path}.hodge_weights",
            f"keys must be exactly the embeddings {sorted(embeddings)}",
        )
    for tau in embeddings:
        vec = _int_vector(weights[tau], f"{path}.hodge_weights.{tau}")
        if len(vec) != n:
            _fail(f"{path}.hodge_weights.{tau}", f"expected {n} entries")
        if any(a > b for a, b in zip(vec, vec[1:])):
            _fail(f"{path}.hodge_weights.{tau}", "entries must be weakly increasing")
    values = None
    if "eigenvalues" in obj:
        raw = obj["eigenvalues"]
        if not isinstance(raw, dict):
            _fail(f"{path}.eigenvalues", "expected an object keyed by eigenvalue label")
        if set(raw) != set(order):
            _fail(
                f"{path}.eigenvalues",
                f"keys must be exactly the refinement_order labels {sorted(order)}",
            )
        values = tuple(
            _parse_fraction(raw[lbl], f"{path}.eigenvalues.{lbl}") for lbl in order
        )
    return PlaceRefinement(
        place=label, q=q, embeddings=tuple(embeddings), labels=tuple(order), values=values
    )


def _parse_perm_map(obj, path: str, embeddings, n: int) -> MultiPerm:
    if not isinstance(obj, dict):
        _fail(path, "expected an object keyed by embedding label")
    if set(obj) != set(embeddings):
        _fail(path, f"keys must be exactly the embeddings {sorted(embeddings)}")
    out = {}
    for tau in sorted(obj):
        vec = _int_vector(obj[tau], f"{path}.{tau}")
        if sorted(vec) != list(range(1, n + 1)):
            _fail(f"{path}.{tau}", f"expected a permutation of 1..{n} in one-line form")
        out[tau] = vec
    return check_multi(out)


def parse_scenario(data: object) -> Scenario:
    """Validate a decoded scenario object and build the typed pieces."""
    if not isinstance(data, dict):
        _fail("scenario", "expected a JSON object at top level")
    _require_keys(
        data,
        "scenario",
        required=("places",),
        optional=("position", "character_weight", "checks", "ff"),
    )
    raw_places = data["places"]
    if not isinstance(raw_places, list) or not raw_places:
        _fail("scenario.places", "expected a non-empty array of places")
    places = []
    n: Optional[int] = None
    seen_labels: Dict[str, int] = {}
    seen_embeddings: Dict[str, int] = {}
    for k, raw in enumerate(raw_places):
        place = _parse_place(raw, f"scenario.places[{k}]", n)
        n = len(place.labels)
        if place.place in seen_labels:
            _fail(
                f"scenario.places[{k}].label",
                f"label {place.place!r} already used by places[{seen_labels[place.place]}]",
            )
        seen_labels[place.place] = k
        for tau in place.embeddings:
            if tau in seen_embeddings:
                _fail(
                    f"scenario.places[{k}].embeddings",
                    f"label {tau!r} already used by places[{seen_embeddings[tau]}]",
                )
            seen_embeddings[tau] = k
        places.append(place)
    refinement = RefinementSpec(places=tuple(places))
    hodge: Dict[str, Tuple[int, ...]] = {}
    for raw, place in zip(raw_places, places):
        for tau in place.embeddings:
            hodge[tau] = tuple(raw["hodge_weights"][tau])
    embeddings = sorted(hodge)
    position = None
    if "position" in data:
        position = _parse_perm_map(data["position"], "scenario.position", embeddings, n)
    character_weight = None
    if "character_weight" in data:
        raw = data["character_weight"]
        if not isinstance(raw, dict):
            _fail("scenario.character_weight", "expected an object keyed by embedding label")
        if set(raw) != set(embeddings):
            _fail(
                "scenario.character_weight",
                f"keys must be exactly the embeddings {embeddings}",
            )
        character_weight = {}
        for tau in embeddings:
            vec = _int_vector(raw[tau], f"scenario.character_weight.{tau}")
            if len(vec) != n:
                _fail(f"scenario.character_weight.{tau}", f"expected {n} entries")
            character_weight[tau] = vec
    checks = None
    if "checks" in data:
        from .fforacle import SUITE_CHECKS  # imported here to keep fforacle off other commands

        raw = data["checks"]
        if not isinstance(raw, list):
            _fail("scenario.checks", "expected an array of check names")
        for k, name in enumerate(raw):
            if name not in SUITE_CHECKS:
                _fail(f"scenario.checks[{k}]", f"unknown check {name!r}; pick from {SUITE_CHECKS}")
        checks = tuple(raw)
    ff = None
    if "ff" in data:
        raw = data["ff"]
        if not isinstance(raw, dict):
            _fail("scenario.ff", "expected an object {n, p}")
        _require_keys(raw, "scenario.ff", required=("n", "p"))
        for key in ("n", "p"):
            if not isinstance(raw[key], int) or isinstance(raw[key], bool):
                _fail(f"scenario.ff.{key}", "expected an integer")
        ff = (raw["n"], raw["p"])
    return Scenario(
        refinement=refinement,
        hodge_weights=hodge,
        position=position,
        character_weight=character_weight,
        checks=checks,
        ff=ff,
    )


def load_scenario(path) -> Scenario:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario: file is not valid JSON ({err})") from err
    return parse_scenario(data)
