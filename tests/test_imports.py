"""Every name a module imports is referenced somewhere in that module, and
every public function and class in src/biqa is referenced in src/biqa."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "biqa").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys\nimport a.b as c\nprint(sys)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources: dict[str, str]) -> set[str]:
    """The public module-level functions and classes, as module.name, that no
    Name or Attribute refers to outside their own definition."""
    defined, references = [], []  # (module.name, its node); (statement, names)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            references.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((f"{module}.{stmt.name}", stmt))
    return {qualified for qualified, node in defined
            if not any(node.name in names for stmt, names in references if stmt is not node)}


def test_dead_api_checker_flags_an_unreferenced_name():
    sources = {
        "m": "def used(): pass\ndef loop(): return loop()\ndef _private(): pass\n"
             "class Kept:\n    def again(self): return Kept()\nclass Alone:\n"
             "    def make(self): return Alone()\nprint(used)\n",
        "n": "import m\nm.Kept\n",
    }
    assert unreferenced_definitions(sources) == {"m.loop", "m.Alone"}


def test_every_public_definition_is_used_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    # predict_image is scorer's only use of sample_patches, which perfbench's
    # tracer patches in scorer by name; it goes with the tracing seam
    # (ROADMAP item 3), and then this entry must go too
    assert unreferenced_definitions(sources) == {"scorer.predict_image"}
