"""config.decode, and a scan that every from_dict in biqa delegates to it.

A from_dict that coerces values itself (int(), float(), ...) lets a
mistyped config pass silently; one that skips decode skips its key checks.
"""

import ast
from dataclasses import dataclass
from pathlib import Path

import pytest

from biqa.config import decode

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "biqa").glob("*.py"))
COERCIONS = {"int", "float", "str", "tuple", "list"}


class _Error(Exception):
    pass


@dataclass(frozen=True)
class _Inner:
    name: str
    size: int = 4

    @staticmethod
    def from_dict(d):
        return decode(_Inner, d, _Error)


@dataclass(frozen=True)
class _Outer:
    rate: float
    counts: tuple[int, ...]
    groups: list[list[str]]
    inner: _Inner


_GOOD = {"rate": 1, "counts": [1, 2], "groups": [["a"], []], "inner": {"name": "x"}}


def test_decode_keeps_values_and_builds_containers():
    out = decode(_Outer, _GOOD, _Error)
    assert out == _Outer(1, (1, 2), [["a"], []], _Inner("x"))
    assert type(out.rate) is int  # kept as written, not float(1)


@pytest.mark.parametrize(
    "change, key",
    [
        ({"rate": True}, "rate"),
        ({"rate": "0.5"}, "rate"),
        ({"counts": [1, 2.0]}, "counts"),
        ({"counts": [1, False]}, "counts"),
        ({"groups": ["ab"]}, "groups"),
        ({"groups": [[1]]}, "groups"),
        ({"inner": {"name": "x", "size": 4.5}}, "size"),
        ({"inner": {"size": 4}}, "'name'"),
        ({"inner": "x"}, "_Inner"),
        ({"extra": 1}, "extra"),
    ],
)
def test_decode_names_the_offending_key(change, key):
    with pytest.raises(_Error, match=key):
        decode(_Outer, _GOOD | change, _Error)


def test_decode_names_every_missing_key():
    with pytest.raises(_Error, match=r"\['counts', 'groups'\]"):
        decode(_Outer, {"rate": 0.5, "inner": {"name": "x"}}, _Error)


def from_dict_faults(source: str) -> list[tuple[int, str]]:
    """(line, fault) for every from_dict that skips decode or coerces."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name == "from_dict"):
            continue
        called = {
            n.func.id
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        if "decode" not in called:
            faults.append((node.lineno, "no decode"))
        faults += [(node.lineno, name) for name in sorted(called & COERCIONS)]
    return faults


def test_checker_flags_hand_rolled_decoders():
    source = "\n".join(
        [
            "class A:",
            "    def from_dict(d):",
            "        return decode(A, d, E)",
            "class B:",
            "    def from_dict(d):",
            "        return B(n=int(d['n']), xs=tuple(d['xs']))",
            "class C:",
            "    def from_dict(d):",
            "        return decode(C, d | {'s': str(d['s'])}, E)",
            "def helper(d):",
            "    return int(d)",
        ]
    )
    assert from_dict_faults(source) == [
        (5, "no decode"), (5, "int"), (5, "tuple"), (8, "str")
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_from_dict_delegates_to_decode(path):
    assert from_dict_faults(path.read_text(encoding="utf-8")) == []
