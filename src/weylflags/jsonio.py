"""JSON encoding of the library's objects and scenario-file loading.

The encoders turn cosets, steps, characters and certificates into plain
dicts that hold the library's own label maps and tuples: json.dumps
writes a tuple as an array, and cli._json sorts the labels, so nothing
is copied on the way out.

Scenario files describe a product of places: each place carries its
residue cardinality q, embedding labels, per-embedding weakly increasing
integer weights, an ordering of eigenvalue labels, and optionally exact
eigenvalue ratios.  Optional top-level fields pin a starting coset
(``position``) and a character weight to locate (``character_weight``).
Validation errors name the offending field by JSON path.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

from .weyl import MultiPerm, multi_longest, shape_of

# names for annotations only: the scenario parser imports what it builds
# when called, so a request that only encodes loads none of the object model
if TYPE_CHECKING:
    from fractions import Fraction

    from .companion import CharacterSymbol, CompanionCertificate, PlaceRefinement, RefinementSpec
    from .cosets import CosetRep
    from .roots import IntegralWeight, ParabolicSpec, Root
    from .steinberg import InductionStep


class ScenarioError(ValueError):
    pass


def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# encoders (plain values for json.dumps)

def root_to_json(alpha: Root) -> Dict[str, object]:
    return {"tau": alpha.tau, "i": alpha.i, "j": alpha.j}


def coset_to_json(w: CosetRep) -> Dict[str, object]:
    return {"rep": w.rep, "blocks": w.spec, "lg": w.lg}


def step_to_json(step: InductionStep) -> Dict[str, object]:
    return {
        "alpha": root_to_json(step.alpha),
        "q_blocks": step.Q,
        "from": coset_to_json(step.w_from),
        "to": coset_to_json(step.w_to),
    }


def character_to_json(c: CharacterSymbol) -> Dict[str, object]:
    return {
        "algebraic_weight": c.algebraic_weight,
        "smooth_labels": _smooth_labels_to_json(c.smooth_labels),
        "twisted": True,  # algebraic_weight is always the twisted weight
    }


@lru_cache(maxsize=1)
def _smooth_labels_to_json(smooth_labels: Tuple[Tuple[str, Tuple[str, ...]], ...]) -> Tuple[Dict[str, object], ...]:
    """Built once for the characters of a listing, which share one smooth_labels tuple."""
    return tuple({"place": place, "labels": labels} for place, labels in smooth_labels)


def certificate_to_json(cert: CompanionCertificate) -> Dict[str, object]:
    return {
        "start": coset_to_json(cert.start),
        "end": coset_to_json(cert.end),
        "chain": [step_to_json(step) for step in cert.chain],
    }


# ---------------------------------------------------------------------------
# scenario loading

class Scenario(NamedTuple):
    refinement: RefinementSpec
    hodge_weights: IntegralWeight
    position: Optional[MultiPerm]
    character_weight: Optional[IntegralWeight]

    @property
    def rank(self) -> int:
        return len(next(iter(self.hodge_weights.values())))

    def start_coset(self, spec: ParabolicSpec) -> CosetRep:
        """The pinned position, or the longest-element coset by default."""
        from .cosets import CosetRep

        if self.position is not None:
            return CosetRep(self.position, spec)
        return CosetRep(multi_longest(shape_of(self.hodge_weights)), spec)


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


def _labels(value, path: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty array of labels")
    if any(not isinstance(x, str) or not x for x in value):
        _fail(path, "labels must be non-empty strings")
    if len(set(value)) != len(value):
        _fail(path, "labels must be distinct")
    return tuple(value)


def _labelled_vectors(obj, path: str, labels, n: int) -> Dict[str, Tuple[int, ...]]:
    """An object keyed by exactly the labels, each value an integer
    n-vector; checked in the order of labels."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object keyed by embedding label")
    if set(obj) != set(labels):
        _fail(path, f"keys must be exactly the embeddings {sorted(labels)}")
    out = {}
    for tau in labels:
        out[tau] = _int_vector(obj[tau], f"{path}.{tau}")
        if len(out[tau]) != n:
            _fail(f"{path}.{tau}", f"expected {n} entries")
    return out


def _parse_fraction(value, path: str) -> Fraction:
    """An integer, or a string of an integer or of a ratio of integers;
    Fraction alone would also take decimals and exponents, and expanding
    "1e999999999" would not finish."""
    import re
    from fractions import Fraction

    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        _fail(path, "expected an integer or a fraction string like '4/3'")
    if not re.fullmatch(r"[-+]?[0-9]+(/[0-9]+)?", value):
        _fail(path, f"cannot parse {value!r} as an exact fraction")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        _fail(path, f"cannot parse {value!r} as an exact fraction")


def _parse_place(obj, path: str, n_expected: Optional[int]) -> Tuple[PlaceRefinement, IntegralWeight]:
    """The place and its validated Hodge weights."""
    from .companion import PlaceRefinement

    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    required = ("label", "q", "embeddings", "hodge_weights", "refinement_order")
    _require_keys(obj, path, required=required, optional=("eigenvalues",))
    label = obj["label"]
    if not isinstance(label, str) or not label:
        _fail(f"{path}.label", "expected a non-empty string")
    q = obj["q"]
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        _fail(f"{path}.q", "expected an integer >= 2")
    embeddings = _labels(obj["embeddings"], f"{path}.embeddings")
    order = _labels(obj["refinement_order"], f"{path}.refinement_order")
    n = len(order)
    if n_expected is not None and n != n_expected:
        _fail(f"{path}.refinement_order", f"expected {n_expected} labels, got {n}")
    weights = _labelled_vectors(obj["hodge_weights"], f"{path}.hodge_weights", embeddings, n)
    for tau, vec in weights.items():
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
    place = PlaceRefinement(place=label, q=q, embeddings=embeddings, labels=order, values=values)
    return place, weights


def parse_scenario(data: object) -> Scenario:
    """Validate a decoded scenario object and build the typed pieces."""
    from .companion import RefinementSpec

    if not isinstance(data, dict):
        _fail("scenario", "expected a JSON object at top level")
    _require_keys(data, "scenario", required=("places",), optional=("position", "character_weight"))
    raw_places = data["places"]
    if not isinstance(raw_places, list) or not raw_places:
        _fail("scenario.places", "expected a non-empty array of places")
    places = []
    n: Optional[int] = None
    seen_labels: Dict[str, int] = {}
    seen_embeddings: Dict[str, int] = {}
    hodge: Dict[str, Tuple[int, ...]] = {}
    for k, raw in enumerate(raw_places):
        place, weights = _parse_place(raw, f"scenario.places[{k}]", n)
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
        hodge.update(weights)
    refinement = RefinementSpec(places=tuple(places))
    embeddings = sorted(hodge)
    position = None
    if "position" in data:
        position = _labelled_vectors(data["position"], "scenario.position", embeddings, n)
        for tau, vec in position.items():
            if sorted(vec) != list(range(1, n + 1)):
                _fail(
                    f"scenario.position.{tau}", f"expected a permutation of 1..{n} in one-line form"
                )
    character_weight = None
    if "character_weight" in data:
        character_weight = _labelled_vectors(
            data["character_weight"], "scenario.character_weight", embeddings, n
        )
    return Scenario(
        refinement=refinement,
        hodge_weights=hodge,
        position=position,
        character_weight=character_weight,
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario: file is not valid JSON ({err})") from err
    except RecursionError:
        raise ScenarioError(f"scenario: file {path} is JSON nested too deeply to decode") from None
    return parse_scenario(data)
