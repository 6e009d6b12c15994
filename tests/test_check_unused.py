"""Tests for ``tools/check_unused.py`` on small injected trees."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_unused", Path(__file__).resolve().parent.parent / "tools" / "check_unused.py"
)
check_unused = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_unused)


@pytest.fixture
def tree(tmp_path):
    """A clean tree: one ``src/`` module whose function a benchmark calls."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(
        'from pkg.core import used\n\n__all__ = ["used"]\n'
    )
    (tmp_path / "src" / "pkg" / "core.py").write_text(
        '"""Core."""\n\nimport math\n\n\ndef used(x):\n    return math.sqrt(x)\n'
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text("from pkg import used\n\nused(4.0)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text(
        "from pkg.core import used\n\n\ndef test_used():\n    assert used(4.0) == 2.0\n"
    )
    return tmp_path


def test_clean_tree_is_silent(tree):
    assert check_unused.findings(tree) == []


def test_unused_import_fails(tree):
    (tree / "tests" / "test_core.py").write_text(
        "import os\n\nfrom pkg.core import used\n\n\n"
        "def test_used():\n    assert used(4.0) == 2.0\n"
    )
    assert check_unused.findings(tree) == ["tests/test_core.py:1: unused import 'os'"]


def test_test_only_function_fails(tree):
    with (tree / "src" / "pkg" / "core.py").open("a") as handle:
        handle.write('\n\ndef helper():\n    """A docstring naming helper() is no use."""\n')
    (tree / "tests" / "test_helper.py").write_text(
        "from pkg.core import helper\n\n\ndef test_helper():\n    helper()\n"
    )
    assert check_unused.findings(tree) == [
        "src/pkg/core.py:10: helper is referenced only by tests (or nowhere)"
    ]


def test_name_in_a_string_counts_as_a_use(tree):
    # cellbench hooks entry points by name, as a "Class.method" string.
    with (tree / "src" / "pkg" / "core.py").open("a") as handle:
        handle.write("\n\nclass Box:\n    def hooked(self):\n        return 1\n")
    (tree / "benchmarks" / "hooks.py").write_text('TARGET = "Box.hooked"\n')
    assert check_unused.findings(tree) == []
