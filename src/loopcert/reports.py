"""Report plumbing: JSON encoding of exact rationals, versioned report
envelopes, a minimal JSON-schema checker, and deterministic seed derivation.

Reports are written with sorted keys and no timing data by default, so a rerun
with the same config and seed produces a byte-identical file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction as Q
from importlib import resources
from pathlib import Path
from typing import Any

SCHEMA_VERSION = 3


def q_json(x) -> dict:
    x = Q(x)
    return {"num": x.numerator, "den": x.denominator}


def q_str(x) -> str:
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for one tagged stream (for example one audited
    element); independent of hash randomization and of the order in which
    the streams are drawn."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Report:
    kind: str
    config: dict
    results: dict
    failures: list = field(default_factory=list)
    wall_time_s: float | None = None

    def to_json(self) -> dict:
        doc: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "failures": self.failures,
        }
        doc.update(self.results)
        if self.wall_time_s is not None:
            doc["wall_time_s"] = round(self.wall_time_s, 3)
        return doc

    @property
    def ok(self) -> bool:
        return not self.failures


def write_report(report: Report, out: str | Path | None) -> str:
    doc = report.to_json()
    validate_report(doc)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    return text


# ---------------------------------------------------------------------------
# schema support: the subset of JSON Schema the shipped files use


def load_schema(kind: str) -> dict:
    name = f"{kind}.schema.json"
    with resources.files("loopcert.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def validate_report(doc: dict) -> None:
    schema = load_schema(doc["kind"])
    errors: list[str] = []
    _check(doc, schema, "$", errors)
    if errors:
        raise ValueError("report does not validate: " + "; ".join(errors[:5]))


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _is_type(value, name: str) -> bool:
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, _TYPES[name])


def _check(value, schema: dict, path: str, errors: list[str]) -> None:
    t = schema.get("type")  # one type name, or a list of them
    if t is not None and not any(_is_type(value, name) for name in ([t] if isinstance(t, str) else t)):
        errors.append(f"{path}: expected {t}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum")
    if t == "object":
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}.{key}: missing required key")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}", errors)
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    errors.append(f"{path}.{key}: unexpected key")
    if t == "array" and "items" in schema:
        for idx, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{idx}]", errors)
