"""Determinism under concurrency and dedup across restarts.

The acceptance bar: N parallel ``POST /v1/simulate`` of the fig6 spec
must return results byte-identical to the direct :class:`Simulator`
run, and a re-submitted spec must be answered from the dedup cache
without re-simulating (visible on the ``/metrics`` counters).
"""

import json
import threading

from repro.serve import Gateway
from repro.serve.jobs import SIMULATE_SPEC
from repro.workloads.fig6 import fig6_spec

from .conftest import Client


def expected_simulate_body(params: dict) -> bytes:
    """The exact bytes the gateway must answer for ``params``.

    ``SIMULATE_SPEC.run`` *is* the direct run -- build_system +
    Simulator + TraceRecorder in this process, no HTTP involved.
    """
    result = SIMULATE_SPEC.run(params)
    key = SIMULATE_SPEC.fingerprint()
    from repro.campaign.cache import run_key

    payload = {
        "id": run_key(key, params),
        "kind": "simulate",
        "state": "done",
        "result": result,
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class TestParallelClients:
    def test_eight_parallel_posts_are_byte_identical(self, gateway, client):
        expected = expected_simulate_body({"spec": fig6_spec()})
        bodies = [None] * 8
        errors = []

        def post(slot):
            try:
                status, _, body = client.post("/v1/simulate", fig6_spec())
                assert status == 200, body
                bodies[slot] = body
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=post, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        assert all(body == expected for body in bodies)

    def test_parallel_identical_posts_simulate_once(self, gateway, client):
        client.post("/v1/simulate", fig6_spec())  # warm (serialises setup)
        threads = [
            threading.Thread(target=client.post,
                             args=("/v1/simulate", fig6_spec()))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        # One fresh simulation ever; everything else was dedup.
        assert gateway.metrics["cache_misses"].total() == 1
        assert gateway.metrics["cache_hits"].total() >= 4
        assert gateway.metrics["jobs_completed"].value(
            kind="simulate", outcome="done") == 1


class TestDedupAcrossRestart:
    def test_second_server_serves_from_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "shared-cache")
        expected = expected_simulate_body({"spec": fig6_spec()})

        first = Gateway(port=0, cache=cache_dir)
        first.start()
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        try:
            status, _, body = Client(first).post("/v1/simulate", fig6_spec())
            assert status == 200 and body == expected
            assert first.metrics["cache_misses"].total() == 1
        finally:
            first.stop()

        second = Gateway(port=0, cache=cache_dir)
        second.start()
        thread = threading.Thread(target=second.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(second)
            status, _, body = client.post("/v1/simulate", fig6_spec())
            assert status == 200 and body == expected
            # Served via the on-disk dedup store: a hit, not a re-run.
            assert second.metrics["cache_hits"].total() == 1
            assert second.metrics["cache_misses"].total() == 0
            _, job = client.get_json(f"/v1/jobs/{json.loads(body)['id']}")
            assert job["cached"] is True
            _, _, scrape = client.get("/metrics")
            assert b"pyrtos_cache_hits_total 1" in scrape
        finally:
            second.stop()
