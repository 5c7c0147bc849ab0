"""Every imported name is used.

A name bound by an import must be referenced somewhere in its file, or
listed in the file's ``__all__`` (a module's deliberate re-exports, which
other modules and the benchmark's tracing reach through it).  String
annotations count as references; other strings do not.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/adgnn", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _referenced(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            # a string annotation such as "Tape | None"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    keep = _referenced(tree) | _exported(tree)
    return sorted(
        (name, line) for name, line in _imported(tree).items() if name not in keep
    )


def test_scanner_flags_only_unused_names():
    source = (
        "import os\nimport numpy as np\nfrom a import b, c\n"
        "from d import e\n__all__ = ['e']\n"
        "x: 'c | None' = np.zeros(1)\n"
        "'os'\n"
    )
    assert unused_imports(source) == [("b", 3), ("os", 1)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
