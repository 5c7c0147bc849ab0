"""Every imported name is used, and every private name in the package is.

A name bound by an import must be referenced somewhere in its file, or
listed in the file's ``__all__`` (a module's deliberate re-exports, which
other modules and the benchmark's tracing reach through it).  String
annotations count as references; other strings do not.

A module-level private name (``_helper``, ``_CONSTANT``) in ``src/adgnn``
must be read somewhere in the package: in its own module, or by another
module that imports it or reaches it as an attribute.  Deleting the last
caller of a helper leaves such an orphan behind.

Every tape primitive that ``autodiff`` exports (a public function that
records a node, itself or through a helper) must have a caller in
another package module.

Every ``__all__`` name and public method in ``src/adgnn`` must be read
outside the tests: by a package module, a demo, ``perfbench/`` or a
README python block.  A read is a name load, an attribute or an import;
a docstring or other string does not count.  The names kept for tests
alone are listed with their reasons.  Every ``from adgnn... import``
in the demos and the README must resolve, since no test runs them.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from adgnn import drivers
from adgnn.drivers import _CSBM_DEFAULTS, _MODEL_DEFAULTS, _TRAIN_DEFAULTS
from adgnn.model import VARIANTS
from adgnn.train import RunResult, SeedResult

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/adgnn").glob("*.py"))
SOURCES = sorted(
    path
    for folder in ("src/adgnn", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)

# public names that only tests read, each with the reason it stays
TEST_ONLY_EXPORTS = {
    "model.trunk_params": "the reference extraction that the full-depth "
                          "reduction tests compare against",
}


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


def _string_annotation_names(tree: ast.AST) -> set[str]:
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            # a string annotation such as "Tape | None"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _referenced(ast.parse(node.value, mode="eval"))
    return names


def _referenced(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | _string_annotation_names(tree)


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    keep = _referenced(tree) | _exported(tree)
    return sorted(
        (name, line) for name, line in _imported(tree).items() if name not in keep
    )


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Names a module reads: loads, attributes, imported names (bound and
    original) and string annotations; a module-level binding alone does
    not count."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return read | set(_imported(tree)) | _string_annotation_names(tree)


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each module-level private name that no
    module of `sources` (module name -> source text) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(_read(tree) for tree in trees.values()))
    return sorted(
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


def test_scanner_flags_only_unused_names():
    source = (
        "import os\nimport numpy as np\nfrom a import b, c\n"
        "from d import e\n__all__ = ['e']\n"
        "x: 'c | None' = np.zeros(1)\n"
        "'os'\n"
    )
    assert unused_imports(source) == [("b", 3), ("os", 1)]


def test_private_scanner_flags_only_orphans():
    sources = {
        "a": "_LIMIT = 1\n_orphan = 2\n\ndef _helper():\n    return _LIMIT\n"
             "\ndef _shared():\n    pass\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _helper\nfrom . import a\n_x: '_Hint' = a._shared\n"
             "\nclass _Hint:\n    pass\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", "_Gone", 10), ("a", "_orphan", 2), ("b", "_x", 3),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unreferenced_private_names():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_private_names(sources) == []


def tape_primitives(source: str) -> set[str]:
    """Exported functions of `source` that reach ``_emit``, directly or
    through other functions of the same module."""
    tree = ast.parse(source)
    calls = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    emitting = {"_emit"}
    while True:
        grown = emitting | {name for name, used in calls.items() if used & emitting}
        if grown == emitting:
            break
        emitting = grown
    return emitting & _exported(tree)


def _names_used_from(tree: ast.Module, module: str) -> set[str]:
    """Names `tree` takes from `module`: imported from it, or reached as
    attributes of a name bound to the module itself."""
    taken, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if source == module:
                    taken.add(alias.name)
                elif alias.name == module:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] == module and alias.asname:
                    aliases.add(alias.asname)
    return taken | {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in aliases
    }


def uncalled_primitives(sources: dict[str, str], module: str) -> set[str]:
    """Tape primitives of `module` that no other module of `sources` takes
    from it; a same-named local elsewhere does not count."""
    used = set().union(*(
        _names_used_from(ast.parse(text), module)
        for name, text in sources.items() if name != module
    ))
    return tape_primitives(sources[module]) - used


def test_primitive_scanner_flags_only_uncalled():
    sources = {
        "ad": "__all__ = ['leaf', 'op', 'wrapped', 'helper']\n"
              "def _emit(x):\n    return x\n"
              "def leaf(x):\n    return x\n"
              "def op(x):\n    return _emit(x)\n"
              "def _inner(x):\n    return _emit(x)\n"
              "def wrapped(x):\n    return _inner(x)\n"
              "def helper(x):\n    return x\n",
        "user": "from .ad import op\nfrom . import ad\ny = op(ad.leaf(1))\n",
        # a local that shares a primitive's name is not a caller
        "other": "import pkg.ad as a2\nwrapped = a2.helper\nwrapped()\n",
    }
    assert tape_primitives(sources["ad"]) == {"op", "wrapped"}
    assert uncalled_primitives(sources, "ad") == {"wrapped"}


def test_every_tape_primitive_has_a_package_caller():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert uncalled_primitives(sources, "autodiff") == set()


def public_surface(tree: ast.Module) -> dict[str, str]:
    """Each ``__all__`` name and each public method (``Class.method``) of
    a module, mapped to the name a reader must use."""
    surface = {name: name for name in _exported(tree)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    surface[f"{node.name}.{item.name}"] = item.name
    return surface


def unread_exports(modules: dict[str, str], readers: list[str]) -> set[str]:
    """``module.name`` of each public name of `modules` (module name ->
    source) that no source in `readers` reads."""
    read = set().union(*(_read(ast.parse(text)) for text in readers))
    return {
        f"{module}.{qualified}"
        for module, text in modules.items()
        for qualified, name in public_surface(ast.parse(text)).items()
        if name not in read
    }


def test_export_scanner_flags_only_unread():
    modules = {
        "m": "__all__ = ['used', 'orphan', 'Box']\n"
             "def used():\n    'orphan is only named here'\n"
             "def orphan():\n    pass\n"
             "class Box:\n"
             "    def read(self):\n        pass\n"
             "    def idle(self):\n        pass\n"
             "    def _private(self):\n        pass\n",
    }
    readers = [modules["m"], "from m import used as u, Box\nu()\nBox().read()\n"]
    assert unread_exports(modules, readers) == {"m.orphan", "m.Box.idle"}


def test_every_export_has_a_reader_outside_the_tests():
    modules = {path.stem: path.read_text() for path in PACKAGE}
    readers = [
        path.read_text()
        for folder in ("src/adgnn", "demos", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ] + README_BLOCKS
    unread = unread_exports(modules, readers)
    extra = sorted(unread - set(TEST_ONLY_EXPORTS))
    assert not extra, f"public names only tests read: {extra}"
    stale = sorted(set(TEST_ONLY_EXPORTS) - unread)
    assert not stale, f"listed names that now have a reader: {stale}"


def adgnn_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each ``from adgnn... import name`` in `source`."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module == "adgnn" or node.module.startswith("adgnn."))
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "source",
    [path.read_text() for path in DEMOS] + README_BLOCKS,
    ids=[str(path.relative_to(ROOT)) for path in DEMOS]
    + [f"README.md[{i}]" for i in range(len(README_BLOCKS))],
)
def test_demo_and_readme_imports_resolve(source):
    imports = adgnn_imports(source)
    assert imports
    missing = [f"{m}.{n}" for m, n in imports
               if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def readme_config_keys(text: str) -> dict[str, list[str]]:
    """The backticked names in the README's sentences on the shared,
    training and model config keys, and the names the `model` key lists."""
    text = " ".join(text.split())
    keys = {}
    for group, opening in (("csbm", r"Config keys shared[^:]*:"),
                           ("train", r"Training keys:"),
                           ("model", r"Model keys:")):
        # a sentence ends at a full stop before a space: 10.0 does not end one
        sentence = re.search(opening + r"(.*?)\.\s", text).group(1)
        keys[group] = re.findall(r"`(\w+)`", sentence)
    keys["models"] = re.search(r"`model` \(([^)]*)\)", text).group(1).split("/")
    return keys


def test_readme_config_keys_match_the_drivers():
    keys = readme_config_keys((ROOT / "README.md").read_text())
    assert keys["csbm"] == list(_CSBM_DEFAULTS)
    assert keys["train"] == list(_TRAIN_DEFAULTS)
    assert keys["model"] == list(_MODEL_DEFAULTS)
    assert tuple(keys["models"]) == ("plain",) + VARIANTS


def test_learned_train_eval_reads_every_documented_default(monkeypatch):
    # a default left in _TRAIN_DEFAULTS or _MODEL_DEFAULTS after its knob
    # is gone would stay documented yet be refused as unread; the soft
    # learned model reads every training key and every model key but
    # heuristic_name, which the heuristic model alone reads
    keys = readme_config_keys((ROOT / "README.md").read_text())
    config = {k: _TRAIN_DEFAULTS[k] for k in keys["train"]}
    config.update({k: _MODEL_DEFAULTS[k] for k in keys["model"]
                   if k != "heuristic_name"})
    config["model"] = "learned"
    assert config["gating"] == "soft"
    trained = []

    def stub(model_cfg, tc, seeds, data_for):
        trained.append((model_cfg, tc))
        return RunResult((SeedResult(0, 0.5, 0, 0.5, (0.5,), 2.0, (0, 0, 1)),))

    monkeypatch.setattr(drivers, "_train_seeds", stub)
    drivers.execute(drivers.ExperimentSpec("train_eval", config, seeds=(0,)))
    (model_cfg, tc), = trained
    assert (model_cfg.variant, model_cfg.gating) == ("learned", "soft")
    assert (tc.epochs, tc.lr) == (config["epochs"], config["lr"])
