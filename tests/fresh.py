"""Run Python in a new interpreter, from the repo root.

What an entry point loads, or what a registry holds before anything
else was imported, shows only in a fresh process: the test process has
long since imported everything.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_fresh(*args: str) -> str:
    """Run ``python *args`` with ``src`` on the path; return its stdout."""
    done = subprocess.run(
        [sys.executable, *args], cwd=REPO,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
