"""What importing the package costs: a process loads only what it uses.

Every check runs in a fresh interpreter, because the test session has
long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.datasets",
    "repro.db",
    "repro.demo",
    "repro.nn",
    "repro.optimizer",
    "repro.sampling",
    "repro.serve",
    "repro.workload",
]

#: What a sketch server imports before it answers its first request.
SERVER_IMPORTS = (
    "import repro; "
    "from repro.core import DeepSketch; "
    "from repro.demo.manager import SketchManager; "
    "from repro.serve import SketchHTTPServer"
)

#: Modules no serving process runs, so none may load with the server.
NOT_SERVED = [
    "networkx",
    "asyncio",
    "scipy",
    "repro.datasets",
    "repro.baselines",
    "repro.core.builder",
    "repro.core.training",
    "repro.nn.training",
    "repro.workload",
    "repro.demo.advisor",
    "repro.demo.template_service",
    "repro.serve.client",
    "repro.serve.gateway",
]


def run_python(program: str):
    """Run ``program`` in a fresh interpreter; returns its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", program],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def loaded_under(prefixes: list[str]) -> str:
    """A program suffix printing the loaded modules under ``prefixes``."""
    return (
        f"; import json, sys; prefixes = {prefixes!r}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if any(m == p or m.startswith(p + '.') for p in prefixes))))"
    )


def test_server_import_set_loads_only_what_serving_runs():
    assert run_python(SERVER_IMPORTS + loaded_under(NOT_SERVED)) == []


def test_db_layer_imports_nothing_from_the_workload_package():
    program = "import repro.db.sql, repro.db.executor, repro.db.join_graph"
    assert run_python(program + loaded_under(["repro.workload"])) == []


def test_package_import_does_not_load_scipy():
    # scipy is a test-only oracle (tests/test_stats_oracle.py).  Loaded
    # with the package it costs every server, worker and CLI process
    # ~0.5 s of start-up and ~60 MB of resident memory; networkx is no
    # dependency at all.  Packages resolve their exports lazily, so a
    # bare import proves nothing: resolve every exported name first.
    program = (
        "import importlib; "
        f"packages = [importlib.import_module(p) for p in {PACKAGES!r}]; "
        "[getattr(p, name) for p in packages for name in p.__all__]"
    )
    assert run_python(program + loaded_under(["scipy", "networkx"])) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    program = f"""
import importlib, json
pkg = importlib.import_module({package!r})
listed = set(dir(pkg))
starred = {{}}
exec("from {package} import *", starred)
print(json.dumps({{
    "all": pkg.__all__,
    "unresolved": [n for n in pkg.__all__ if not hasattr(pkg, n)],
    "uncached": [n for n in pkg.__all__ if n not in vars(pkg)],
    "not_in_dir": [n for n in pkg.__all__ if n not in listed],
    "not_starred": [n for n in pkg.__all__ if n not in starred],
    "phantom": hasattr(pkg, "no_such_name"),
}}))
"""
    result = run_python(program)
    assert result["all"]
    for key in ("unresolved", "uncached", "not_in_dir", "not_starred"):
        assert result[key] == [], key
    assert result["phantom"] is False
