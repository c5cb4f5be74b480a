"""No ``subtrace`` module reaches into another module's internals.

A name that starts with one underscore is private to the module that
defines it. Each module's source is parsed with ``ast``; the test fails
when a module imports a sibling module's private name, or reads one as an
attribute of a sibling module it imported. Dunder names are not private.
"""

from __future__ import annotations

import ast
from pathlib import Path

import subtrace

PKG_DIR = Path(subtrace.__file__).resolve().parent
SIBLINGS = {p.stem for p in PKG_DIR.glob("*.py")}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling_of(node: ast.ImportFrom) -> str | None:
    """The sibling module a ``from ... import`` names, ``""`` for the package itself."""
    if node.level == 1:
        return node.module or ""
    if node.module == subtrace.__name__:
        return ""
    prefix = subtrace.__name__ + "."
    if node.level == 0 and node.module and node.module.startswith(prefix):
        return node.module[len(prefix) :]
    return None


def reaches(path: Path) -> list[str]:
    """Every place the module at ``path`` uses a sibling's private name, as ``line: what``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    modules: set[str] = set()  # local names bound to sibling modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = sibling_of(node)
            if sibling is None:
                continue
            for alias in node.names:
                if sibling == "" and alias.name in SIBLINGS:
                    modules.add(alias.asname or alias.name)
                if is_private(alias.name):
                    found.append(f"{node.lineno}: imports {sibling or subtrace.__name__}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(subtrace.__name__ + ".") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ):
            found.append(f"{node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_siblings_private_names():
    assert SIBLINGS >= {"infer", "pipeline", "evalharness"}
    found = [f"{p.name}:{where}" for p in sorted(PKG_DIR.glob("*.py")) for where in reaches(p)]
    assert found == []


def test_checker_sees_both_kinds_of_reach(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import infer as inf, coord\n"
        "from .infer import _classify, decode_spans, __doc__\n"
        "from subtrace.segment import _final_points\n"
        "x = inf._screen, coord.transform, coord.__name__, self._own\n"
    )
    assert reaches(src) == [
        "2: imports infer._classify",
        "3: imports segment._final_points",
        "4: reads inf._screen",
    ]
