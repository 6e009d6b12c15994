"""Fail on unused imports and on ``src/`` definitions that only tests use.

Run from anywhere; the repository root is this file's parent directory:

    python tools/check_unused.py

Two checks, on the standard library's ``ast`` only:

1. **Unused imports.**  In every Python file under ``src/``, ``tests/``,
   ``benchmarks/``, ``examples/`` and ``tools/``, each name an import
   binds must be referenced in its module, or be listed in the module's
   ``__all__``.  ``from __future__`` imports are exempt.  A name used
   only inside a string annotation counts as unreferenced.
2. **Test-only definitions.**  Every top-level function and class under
   ``src/``, and every method of a top-level class, must be referenced
   by name outside ``tests/``: in ``src/``, ``benchmarks/``,
   ``examples/``, ``cellbench/``, ``tools/`` or ``setup.py``.  Names in
   string constants count (``cellbench/`` hooks entry points by name),
   docstrings do not.  Dunder methods are exempt.  :data:`ALLOWLIST`
   names the definitions kept as test oracles or probes, each with its
   reason.

Matching is by name, so a definition that shares its name with a used
one passes: the check finds dead code, it does not prove code live.
Exit status 1 with one line per finding, 0 and no output otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Directories whose imports are checked.
IMPORT_DIRS = ("src", "tests", "benchmarks", "examples", "tools")
#: Code outside ``tests/`` whose references keep a ``src/`` definition.
USER_PATHS = ("src", "benchmarks", "examples", "cellbench", "tools", "setup.py")

#: ``src/`` definitions only tests use, and why each stays.
ALLOWLIST: Dict[str, str] = {
    "Hyperbox.contains_box": "oracle: the trimmed box TH lies inside the honest box",
    "Ball.contains_all": "oracle: a covering ball covers every point it was built on",
    "AgreementResult.final_matrix": "oracle: the honest outputs of an agreement run",
    "Dataset.class_counts": "oracle: the label histogram of a dataset or shard",
    "max_coordinate_spread": "oracle: per-coordinate spread of the honest vectors",
    "_MinimumDiameterBase.minimum_diameter_set": "oracle: the MDA subset and its diameter",
    "ScenarioGrid.to_spec": "oracle: a grid round-trips through its JSON spec",
    "Topology.is_connected": "oracle: a generator's graph is (dis)connected",
    "load_histories": "oracle: saved histories load back equal",
    "ReliableBroadcast.deliver": "oracle: the lock-step delivery reference of the schedulers",
    "Hyperbox.max_edge_length": "oracle: E_max of Definition 3.7, the edge Theorem 4.4 bounds",
    "data_cache_stats": "probe: hit/miss counters of the cross-cell data cache",
    "Dataset.flattened": "probe: images as (samples, features) rows",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _python_files(root: Path, paths) -> Iterator[Path]:
    for name in paths:
        path = root / name
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unread_strings(tree: ast.Module) -> Set[int]:
    """``id`` of every docstring and ``__all__`` entry in ``tree``.

    Neither uses a definition: a docstring describes it, and ``__all__``
    only re-exports it.
    """
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    ids.update(id(node) for node in ast.walk(_dunder_all_node(tree)))
    return ids


def _references(tree: ast.Module, *, strings: bool) -> Set[str]:
    """Names ``tree`` refers to; with ``strings``, identifiers in the strings it reads."""
    names: Set[str] = set()
    skip = _unread_strings(tree) if strings else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip:
                names.update(_IDENTIFIER.findall(node.value))
    return names


def _dunder_all_node(tree: ast.Module) -> ast.AST:
    """The value assigned to the module's ``__all__`` (an empty tuple without one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return node.value
    return ast.Tuple(elts=[])


def _dunder_all(tree: ast.Module) -> Set[str]:
    return {
        node.value for node in ast.walk(_dunder_all_node(tree))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every name ``path`` imports and never references."""
    tree = _parse(path)
    used = _references(tree, strings=False) | _dunder_all(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append((node.lineno, bound))
    return found


def definitions(path: Path) -> Iterator[Tuple[int, str, str]]:
    """``(line, name, qualified name)`` of the top-level definitions and their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in _parse(path).body:
        if not isinstance(node, kinds):
            continue
        yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds):
                    yield member.lineno, member.name, f"{node.name}.{member.name}"


def findings(root: Path = ROOT) -> List[str]:
    """One line per unused import and per test-only ``src/`` definition under ``root``."""
    lines = []
    for path in _python_files(root, IMPORT_DIRS):
        for line, name in unused_imports(path):
            lines.append(f"{path.relative_to(root)}:{line}: unused import {name!r}")
    used: Set[str] = set()
    for path in _python_files(root, USER_PATHS):
        if path != Path(__file__).resolve():  # the allowlist is no use
            used |= _references(_parse(path), strings=True)
    for path in _python_files(root, ["src"]):
        for line, name, qualified in definitions(path):
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name in used or qualified in ALLOWLIST:
                continue
            lines.append(
                f"{path.relative_to(root)}:{line}: {qualified} is referenced "
                f"only by tests (or nowhere)"
            )
    return lines


def main() -> int:
    lines = findings()
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
