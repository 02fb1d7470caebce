"""Every name the end-to-end benchmark takes from the package still exists.

``benchmarks/e2e/ledger.py`` records a span around each layer's public
function, named in its ``TARGETS`` table, and its own tests fail when
one of them no longer resolves (``trace.missing``) — but only in the
~90 s benchmark suite.  This reads the same table, so deleting or
renaming a timed function fails here first; when the ledger is
retargeted, the check follows the table.  The same holds for every
``from repro... import ...`` statement in ``benchmarks/e2e/*.py``,
module level or inside a function: moving a module those files import
from fails here, not in the benchmark.
"""

import ast
import glob
import importlib
import os

import pytest

E2E = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks", "e2e"
)
LEDGER = os.path.join(E2E, "ledger.py")


def ledger_targets() -> dict[str, str]:
    """The ledger's ``TARGETS`` literal, read without importing it."""
    with open(LEDGER) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/e2e/ledger.py defines no TARGETS")


TARGETS = ledger_targets()


def test_targets_are_read():
    assert len(TARGETS) >= 20
    assert all(":" in path for path in TARGETS.values())


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves(name):
    module, _, attrs = TARGETS[name].partition(":")
    target = importlib.import_module(module)
    for attr in attrs.split("."):
        target = getattr(target, attr)
    assert callable(target), name


def benchmark_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro... import name``
    in ``benchmarks/e2e/*.py``."""
    found = []
    for path in sorted(glob.glob(os.path.join(E2E, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "repro" or node.module.startswith("repro.")
            ):
                found.extend(
                    (os.path.basename(path), node.module, alias.name)
                    for alias in node.names
                )
    return found


IMPORTS = benchmark_imports()


def test_benchmark_imports_are_read():
    modules = {module for _, module, _ in IMPORTS}
    assert "repro.demo.manager" in modules
    assert len(IMPORTS) >= 20


@pytest.mark.parametrize(
    "file, module, name", IMPORTS, ids=[f"{f}:{m}:{n}" for f, m, n in IMPORTS]
)
def test_benchmark_import_resolves(file, module, name):
    target = importlib.import_module(module)
    if not hasattr(target, name):
        importlib.import_module(f"{module}.{name}")  # a submodule


def test_ledger_constructs_its_scratch_and_feature_cache():
    # Ledger.__init__ builds both unconditionally.
    from repro.core.batches import CollateScratch
    from repro.serve import FeatureCache

    CollateScratch()
    FeatureCache()
