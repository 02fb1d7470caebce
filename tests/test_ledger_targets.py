"""Every function the benchmark's ledger times still exists.

``benchmarks/e2e/ledger.py`` records a span around each layer's public
function, named in its ``TARGETS`` table, and its own tests fail when
one of them no longer resolves (``trace.missing``) — but only in the
~90 s benchmark suite.  This reads the same table, so deleting or
renaming a timed function fails here first; when the ledger is
retargeted, the check follows the table.
"""

import ast
import importlib
import os

import pytest

LEDGER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks", "e2e", "ledger.py"
)


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


def test_ledger_constructs_its_scratch_and_feature_cache():
    # Ledger.__init__ builds both unconditionally.
    from repro.core.batches import CollateScratch
    from repro.serve import FeatureCache

    CollateScratch()
    FeatureCache()
