"""The package's shape: its layer order, its public names and its version."""

import ast
import importlib
import re
from pathlib import Path

import rqgames

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rqgames"

# each module may import only from modules of a lower layer; induce and nash share one
LAYERS = {"errors": 0, "hilbert": 1, "games": 2, "induce": 3, "nash": 3, "cli": 4}


def test_modules_import_only_from_lower_layers():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    upward = []
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                upward += [(module, t) for t in targets if LAYERS[t] >= LAYERS[module]]
    assert upward == []


def test_readme_public_api_lists_every_exported_name():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Public API\n(.*?)^## ", text, re.S | re.M).group(1)
    listed = []
    for item in section.split("\n- ")[1:]:
        module, *names = re.findall(r"`([^`]+)`", item)
        for name in names:
            assert getattr(importlib.import_module(module), name) is getattr(rqgames, name)
        listed += names
    assert sorted(listed) == sorted(rqgames.__all__)


def test_pyproject_and_package_agree_on_the_version():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == rqgames.__version__
