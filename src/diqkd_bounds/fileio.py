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

_SHOWN_CHARS = 80  # of a refused JSON value in an error message


def _shown(v) -> str:
    """``json.dumps(v)``, cut to `_SHOWN_CHARS` characters with "…" when longer."""
    text = json.dumps(v)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 1] + "…"


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


def _integer(n) -> int:
    """``operator.index(n)``, refusing JSON booleans, which Python counts as ints."""
    if isinstance(n, bool):
        raise TypeError(f"expected an integer, got {json.dumps(n)}")
    return operator.index(n)


def _number(v):
    """``v`` if it is a JSON number.

    Booleans, which numpy and complex() read as numbers, are refused, and so
    are strings, nulls, arrays and objects.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {_shown(v)}")
    return v


def _load(path: str | Path, from_dict, kind: str):
    """``from_dict`` of the JSON document at ``path``.

    A document nested past Python's recursion limit, or an integer literal
    beyond float range, is refused as malformed.
    """
    text = Path(path).read_text()
    try:
        return from_dict(json.loads(text))
    except RecursionError:
        raise ValueError(f"malformed {kind} document: nested too deeply") from None
    except OverflowError:
        raise ValueError(f"malformed {kind} document: a number is beyond float range") from None


def behavior_from_dict(doc: dict) -> Behavior:
    *counts, p = _fields(doc, ("x_count", "y_count", "a_count", "b_count", "p"), "behavior")
    try:
        expected = tuple(_integer(n) for n in counts)
        for v in np.asarray(p, dtype=object).reshape(-1):  # each leaf as given; .flat stops at 32-d
            _number(v)
        table = np.asarray(p, dtype=float)
    except TypeError as exc:
        raise ValueError(f"malformed behavior document: {exc}") from exc
    if table.shape != expected:
        raise ValueError(f"malformed behavior document: p has shape {table.shape}, "
                         f"fields say {expected}")
    return Behavior(table)


def save_behavior(b: Behavior, path: str | Path):
    Path(path).write_text(json.dumps(behavior_to_dict(b), indent=1) + "\n")


def load_behavior(path: str | Path) -> Behavior:
    return _load(path, behavior_from_dict, "behavior")


def state_to_dict(rho: DensityMatrix) -> dict:
    flat = rho.matrix.reshape(-1)
    return {"dims": list(rho.dims),
            "entries": [[float(z.real), float(z.imag)] for z in flat]}


def state_from_dict(doc: dict) -> DensityMatrix:
    dims, entries = _fields(doc, ("dims", "entries"), "state")
    try:
        dims = _factor_dims(_integer(d) for d in dims)
        total = int(np.prod(dims))
        if len(entries) != total * total:
            raise ValueError(f"malformed state document: expected {total * total} entries, "
                             f"got {len(entries)}")
        for pair in entries:  # Python's own unpacking error would name no document
            if hasattr(pair, "__len__") and len(pair) != 2:
                raise TypeError(f"expected an entry [re, im], got {_shown(pair)}")
        flat = np.array([complex(_number(re), _number(im)) for re, im in entries])
    except TypeError as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    return DensityMatrix(flat.reshape(total, total), dims)


def save_state(rho: DensityMatrix, path: str | Path):
    Path(path).write_text(json.dumps(state_to_dict(rho), indent=1) + "\n")


def load_state(path: str | Path) -> DensityMatrix:
    return _load(path, state_from_dict, "state")
