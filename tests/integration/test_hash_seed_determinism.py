"""Traces do not depend on the interpreter's hash seed.

``TaskState``, ``OverheadKind`` and ``AccessKind`` hash by identity, and
strings hash differently under every ``PYTHONHASHSEED``.  Neither may
leak into a schedule: the paper's fig6 system and a global-EDF
multicore spec are simulated in fresh interpreters under two hash seeds
and must produce the same trace digest.  The digest is the one the
repository benchmark checks (``trace_digest`` in ``perfbench/jobs.py``):
SHA-256 over every record's text, sorted inside each simulated instant.
"""

import json
import os
import subprocess
import sys

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

SCRIPT = r"""
import hashlib
import itertools
import json

from repro.corpus import generate
from repro.kernel.time import MS
from repro.mcse.builder import build_system
from repro.trace.recorder import TraceRecorder
from repro.workloads.fig6 import fig6_spec


def trace_digest(records):
    digest = hashlib.sha256()
    for _, group in itertools.groupby(records, key=lambda r: r.time):
        for text in sorted(map(repr, group)):
            digest.update(text.encode())
            digest.update(b"\n")
    return digest.hexdigest()


def run(spec, horizon):
    system = build_system(spec)
    recorder = TraceRecorder(system.sim)
    system.run(until=horizon)
    return [trace_digest(recorder.records), len(recorder.records),
            len(recorder.migrations()), system.now]


smp = generate("smp", 3, {"cores": 4, "n": 10, "utilization": 2.4,
                          "policy": "global_edf", "migration_cost_us": 5})
print(json.dumps({"fig6": run(fig6_spec(), 1 * MS),
                  "smp": run(smp, 50 * MS)}))
"""


def digests_under(hash_seed: str) -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SRC_DIR if not existing else SRC_DIR + os.pathsep + existing
    )
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_trace_digests_match_across_hash_seeds():
    first = digests_under("0")
    second = digests_under("1")
    assert first == second
    # both systems did real work, and the multicore one migrated tasks
    assert first["fig6"][1] > 0 and first["smp"][1] > 0
    assert first["smp"][2] > 0
