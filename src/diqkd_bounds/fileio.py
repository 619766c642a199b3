"""On-disk formats for behaviors and states (JSON documents).

Behavior files::

    {"x_count": 3, "y_count": 2, "a_count": 2, "b_count": 2,
     "p": [[[[...]]]]}          # nested list p[x][y][a][b] of decimals

State files::

    {"dims": [2, 2],
     "entries": [[re, im], ...]}  # row-major, length prod(dims)^2

Both grammars are documented in the README.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path

import numpy as np

from .devices import Behavior
from .states import DensityMatrix, _factor_dims


def behavior_to_dict(b: Behavior) -> dict:
    x, y, a, bb = b.shape
    return {"x_count": x, "y_count": y, "a_count": a, "b_count": bb,
            "p": b.table.tolist()}


def _fields(doc, keys: tuple[str, ...], kind: str) -> list:
    """The values of ``keys`` in a JSON object; ValueError if one is missing."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{kind} document is missing field {key!r}")
    return [doc[key] for key in keys]


def behavior_from_dict(doc: dict) -> Behavior:
    *counts, p = _fields(doc, ("x_count", "y_count", "a_count", "b_count", "p"), "behavior")
    try:
        expected = tuple(operator.index(n) for n in counts)
        table = np.asarray(p, dtype=float)
    except TypeError as exc:
        raise ValueError(f"malformed behavior document: {exc}") from exc
    if table.shape != expected:
        raise ValueError(f"p has shape {table.shape}, fields say {expected}")
    return Behavior(table)


def save_behavior(b: Behavior, path: str | Path):
    Path(path).write_text(json.dumps(behavior_to_dict(b), indent=1) + "\n")


def load_behavior(path: str | Path) -> Behavior:
    return behavior_from_dict(json.loads(Path(path).read_text()))


def state_to_dict(rho: DensityMatrix) -> dict:
    flat = rho.matrix.reshape(-1)
    return {"dims": list(rho.dims),
            "entries": [[float(z.real), float(z.imag)] for z in flat]}


def state_from_dict(doc: dict) -> DensityMatrix:
    dims, entries = _fields(doc, ("dims", "entries"), "state")
    try:
        dims = _factor_dims(operator.index(d) for d in dims)
        total = int(np.prod(dims))
        if len(entries) != total * total:
            raise ValueError(f"expected {total * total} entries, got {len(entries)}")
        flat = np.array([complex(re, im) for re, im in entries])
    except TypeError as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    return DensityMatrix(flat.reshape(total, total), dims)


def save_state(rho: DensityMatrix, path: str | Path):
    Path(path).write_text(json.dumps(state_to_dict(rho), indent=1) + "\n")


def load_state(path: str | Path) -> DensityMatrix:
    return state_from_dict(json.loads(Path(path).read_text()))
