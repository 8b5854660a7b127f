"""JSON model documents.

Schema (one object per file):

    {
      "p": 3, "d": 3,
      "x0": [...], "A": [...],
      "B": [[...], ...], "sigma": [[...], ...],
      "labels": ["X1", "X2", "X3"],              // optional
      "interventions": [{"on": "X2", "value": 0}] // optional
    }

"on" accepts a coordinate label or a 1-based index. Listed interventions
are applied (left to right) when the document is loaded. Documents emitted
by the `intervene` command additionally carry an "intervention_record" key,
which is provenance and is ignored on load. Numbers are serialized with
shortest round-trip precision, so emitted documents re-parse exactly.
"""

from __future__ import annotations

import json

from .errors import ModelFileError
from .models import Intervention, InterventionRecord, OuModel

_REQUIRED = ("p", "d", "x0", "A", "B", "sigma")
_OPTIONAL = ("labels", "interventions", "intervention_record")


def resolve_coordinate(labels: tuple[str, ...], token) -> int:
    """Resolve a label or 1-based index to a 1-based coordinate index."""
    if isinstance(token, bool):
        raise ModelFileError(f"coordinate reference {token!r} is not a label or index")
    if isinstance(token, int):
        if not 1 <= token <= len(labels):
            raise ModelFileError(f"coordinate index {token} outside 1..{len(labels)}")
        return token
    if isinstance(token, str):
        if token in labels:
            return labels.index(token) + 1
        if token.isdecimal():  # exactly the digit strings int() accepts
            return resolve_coordinate(labels, int(token))
        raise ModelFileError(f"unknown coordinate label {token!r}")
    raise ModelFileError(f"coordinate reference {token!r} is not a label or index")


def parse_model_document(text: str) -> tuple[OuModel, list[Intervention]]:
    """Parse a JSON model document into a model and its listed interventions.

    Schema problems raise ModelFileError naming the offending key; shape or
    finiteness violations propagate from model validation.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise ModelFileError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ModelFileError("top-level JSON value must be an object")
    for key in doc:
        if key not in _REQUIRED and key not in _OPTIONAL:
            raise ModelFileError(f"unknown key {key!r}")
    for key in _REQUIRED:
        if key not in doc:
            raise ModelFileError(f"missing required key {key!r}")
    for key in ("p", "d"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ModelFileError(f"key {key!r} must be an integer")
    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list)
                or not all(isinstance(s, str) for s in labels)):
            raise ModelFileError("key 'labels' must be a list of strings")
        labels = tuple(labels)
    model = OuModel(
        p=doc["p"],
        d=doc["d"],
        x0=doc["x0"],
        A=doc["A"],
        B=doc["B"],
        sigma=doc["sigma"],
        labels=labels or (),
    )
    interventions = []
    raw = doc.get("interventions", [])
    if not isinstance(raw, list):
        raise ModelFileError("key 'interventions' must be a list")
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"on", "value"}:
            raise ModelFileError(
                "each intervention must be an object with keys 'on' and 'value'"
            )
        if isinstance(entry["value"], bool) or not isinstance(
            entry["value"], (int, float)
        ):
            raise ModelFileError("intervention 'value' must be a number")
        m = resolve_coordinate(model.labels, entry["on"])
        interventions.append(Intervention(m, float(entry["value"])))
    return model, interventions


def load_model_file(path: str) -> tuple[OuModel, list[Intervention]]:
    """Read and parse a model document from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file: {exc}")
    return parse_model_document(text)


def model_to_dict(model: OuModel, record: InterventionRecord | None = None) -> dict:
    """Serializable document with deterministic field order."""
    doc = {
        "p": model.p,
        "d": model.d,
        "labels": list(model.labels),
        "x0": model.x0.tolist(),
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "sigma": model.sigma.tolist(),
    }
    if record is not None:
        doc["intervention_record"] = record.as_dict()
    return doc


def dumps_model(model: OuModel, record: InterventionRecord | None = None) -> str:
    return json.dumps(model_to_dict(model, record), indent=2) + "\n"
