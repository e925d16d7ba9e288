"""Every file biqa writes goes through png_io.write_atomic.

A write-mode open() anywhere else could leave a torn file under its final
name when a run is cut short.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "biqa").glob("*.py"))
ALLOWED = "write_atomic"


def unsafe_opens(source: str) -> list[int]:
    """Line numbers of open() calls that may write, outside write_atomic.

    A mode that is not a string literal counts as writing, since the scan
    cannot tell.
    """
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == ALLOWED:
            allowed |= {id(n) for n in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and id(node) not in allowed
        ):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        for mode in modes:
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not literal or set(mode.value) & set("wax+"):
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_writing_opens_outside_write_atomic():
    source = "\n".join(
        [
            "def write_atomic(path, data):",
            "    with open(path + '.tmp', 'wb') as fh:",
            "        fh.write(data)",
            "def reads(path):",
            "    open(path).read()",
            "    open(path, 'rb').read()",
            "    open(path, encoding='utf-8').read()",
            "def writes(path, mode):",
            "    open(path, 'w')",
            "    open(path, 'a', encoding='utf-8')",
            "    open(path, mode='xb')",
            "    open(path, 'r+b')",
            "    open(path, mode)",
        ]
    )
    assert unsafe_opens(source) == [9, 10, 11, 12, 13]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_write_goes_through_write_atomic(path):
    assert unsafe_opens(path.read_text(encoding="utf-8")) == []
