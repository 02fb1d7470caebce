"""What importing the package costs: no optional heavy dependencies."""

import os
import subprocess
import sys


def test_package_import_does_not_load_scipy():
    # scipy is a test-only oracle (tests/test_stats_oracle.py).  Loaded
    # with the package it costs every server, worker and CLI process
    # ~0.5 s of start-up and ~60 MB of resident memory.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    program = (
        "import sys, repro, repro.serve; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", program],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
