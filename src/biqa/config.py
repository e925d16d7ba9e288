"""One rule for decoding every JSON config into its dataclass.

Each key must name a field, each field without a default must be present,
and each value must already have its field's type: int fields take
integers and float fields any real number (never a bool), str fields
strings, dict fields JSON objects, tuple/list fields are checked item by
item, and a nested config goes through its own from_dict. Values are kept
as given. A violation raises the caller's error class and names the key.
The pair-manifest sidecar is decoded by the same rule.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import typing

# a scalar field's type -> the values it accepts (bool excluded)
_SCALARS = {int: numbers.Integral, float: numbers.Real, str: str, dict: dict}


def read_json(path: str, error):
    """The JSON value in path; error(message naming path) if it does not parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: {exc}") from None


def json_text(obj) -> str:
    """The text of every JSON file biqa writes: sorted keys, indent 1."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


@functools.lru_cache(maxsize=None)
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """field name -> (resolved type, required), resolved once per class."""
    hints, none = typing.get_type_hints(cls), dataclasses.MISSING
    return {f.name: (hints[f.name], f.default is none and f.default_factory is none)
            for f in dataclasses.fields(cls)}


def _value(tp, value, error, key: str):
    origin = typing.get_origin(tp)
    if origin in (tuple, list):
        if not isinstance(value, (tuple, list)):
            raise error(f"config {key!r} must be a list, got {value!r}")
        return origin(_value(typing.get_args(tp)[0], v, error, key) for v in value)
    if dataclasses.is_dataclass(tp):
        return tp.from_dict(value)
    if isinstance(value, bool) or not isinstance(value, _SCALARS[tp]):
        raise error(f"config {key!r} must be {tp.__name__}, got {value!r}")
    return value


def decode(cls, d, error):
    """cls(**d) once d passes the rule above; error(message) otherwise."""
    if not isinstance(d, dict):
        raise error(f"{cls.__name__} must be a JSON object, got {d!r}")
    spec = _fields(cls)
    unknown = set(d) - set(spec)
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    missing = [name for name, (_, needed) in spec.items() if needed and name not in d]
    if missing:
        raise error(f"{cls.__name__} is missing keys: {missing}")
    return cls(**{key: _value(spec[key][0], v, error, key) for key, v in d.items()})
