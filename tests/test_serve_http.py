"""End-to-end tests of the asyncio HTTP front end and the CLI client."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.aiger import write_aag
from repro.aiger.writer import to_aag_string
from repro.benchgen import token_ring
from repro.cli import main
from repro.serve.server import JobServer
from repro.serve.service import VerificationService

SAFE_TEXT = to_aag_string(token_ring(3, safe=True).aig)


class ServerUnderTest:
    """A JobServer on an ephemeral port driven from a background thread."""

    def __init__(self, **service_kwargs):
        service_kwargs.setdefault("workers", 2)
        service_kwargs.setdefault("default_timeout", 20.0)
        service_kwargs.setdefault("tenant_burst", 100.0)
        self.service = VerificationService(**service_kwargs)
        self.server = JobServer(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self.loop.run_forever()

    def start(self):
        self._thread.start()
        deadline = time.monotonic() + 10
        while self.server._server is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert self.server._server is not None, "server failed to start"
        return self

    def stop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.service.stop()

    @property
    def base(self):
        return self.server.address

    def request(self, path, *, data=None, headers=None, method=None):
        req = urllib.request.Request(
            self.base + path, data=data, headers=headers or {}, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return response.status, json.loads(response.read()), dict(response.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)

    def request_text(self, path, *, headers=None):
        req = urllib.request.Request(self.base + path, headers=headers or {})
        with urllib.request.urlopen(req, timeout=30) as response:
            return (
                response.status,
                response.read().decode("utf-8"),
                dict(response.headers),
            )

    def poll_done(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload, _ = self.request(f"/jobs/{job_id}")
            assert status == 200
            if payload["status"] in ("done", "failed"):
                return payload
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture
def server():
    srv = ServerUnderTest().start()
    yield srv
    srv.stop()


class TestHttpApi:
    def test_health_and_metrics(self, server):
        status, health, _ = server.request("/health")
        assert status == 200 and health["status"] == "ok"
        status, metrics, _ = server.request("/metrics.json")
        assert status == 200
        assert metrics["jobs_submitted"] == 0
        assert "uptime_seconds" in metrics

    def test_metrics_content_negotiation(self, server):
        from repro.obs.metrics import parse_prometheus

        status, text, headers = server.request_text("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_prometheus(text)
        assert families["repro_serve_jobs_submitted_total"]["type"] == "counter"
        assert "repro_serve_queue_depth" in families

        status, metrics, _ = server.request(
            "/metrics", headers={"Accept": "application/json"}
        )
        assert status == 200
        assert metrics["jobs_submitted"] == 0

    def test_submit_poll_and_cached_resubmit(self, server):
        body = json.dumps({"model": SAFE_TEXT, "timeout": 20}).encode()
        status, payload, headers = server.request(
            "/jobs", data=body, headers={"X-Tenant": "t1"}, method="POST"
        )
        assert status == 202
        assert headers["Location"] == f"/jobs/{payload['id']}"
        done = server.poll_done(payload["id"])
        assert done["result"]["result"] == "safe"

        status, second, _ = server.request("/jobs", data=body, method="POST")
        assert status == 200
        assert second["cache_hit"] is True
        assert second["result"] == done["result"]

        _, metrics, _ = server.request("/metrics.json")
        assert metrics["jobs_submitted"] == 2
        assert metrics["cache_hits"] == 1
        # The solved job fed the latency histograms (satellite contract:
        # the JSON snapshot stays flat-counter compatible, the histogram
        # block is additive).
        assert metrics["histograms"]["solve_latency_seconds"]["safe"]["count"] >= 1
        assert metrics["histograms"]["queue_latency_seconds"]["count"] >= 1

    def test_raw_aag_body_accepted(self, server):
        status, payload, _ = server.request(
            "/jobs", data=SAFE_TEXT.encode(), method="POST"
        )
        assert status == 202
        assert server.poll_done(payload["id"])["result"]["result"] == "safe"

    def test_malformed_bodies_rejected(self, server):
        retired_option = json.dumps({"model": SAFE_TEXT, "sat_backend": "arena"})
        for body in (
            b"garbage",
            b'{"engine": "ic3"}',
            b'{"model": 7}',
            retired_option.encode(),
        ):
            status, payload, _ = server.request("/jobs", data=body, method="POST")
            assert status == 400, body
            assert "error" in payload

    def test_unknown_routes_and_methods(self, server):
        assert server.request("/nope")[0] == 404
        assert server.request("/jobs/job-unknown")[0] == 404
        status, _, headers = server.request("/health", data=b"x", method="POST")
        assert status == 405
        assert headers["Allow"] == "GET, POST"

    def test_jobs_listing(self, server):
        status, payload, _ = server.request(
            "/jobs", data=SAFE_TEXT.encode(), method="POST"
        )
        server.poll_done(payload["id"])
        status, listing, _ = server.request("/jobs")
        assert status == 200
        assert any(job["id"] == payload["id"] for job in listing["jobs"])


class TestBackpressureOverHttp:
    def test_queue_full_answers_503_with_retry_after(self):
        server = ServerUnderTest(workers=1, queue_depth=1).start()
        try:
            server.service.pool.pause()
            body = SAFE_TEXT.encode()
            assert server.request("/jobs", data=body, method="POST")[0] == 202
            status, payload, headers = server.request("/jobs", data=body, method="POST")
            assert status == 503
            assert "Retry-After" in headers
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after"] >= 1
            server.service.pool.resume()
        finally:
            server.stop()

    def test_retry_after_tracks_observed_drain_rate(self):
        server = ServerUnderTest(workers=1, queue_depth=1).start()
        try:
            # Seed the solve-latency histogram as if jobs had completed
            # with a 6 s mean, then check the 503's Retry-After is derived
            # from that observed drain rate, not the static default budget.
            server.service.metrics.observe_solve_latency("safe", 6.0)
            server.service.pool.pause()
            body = SAFE_TEXT.encode()
            assert server.request("/jobs", data=body, method="POST")[0] == 202
            status, payload, headers = server.request("/jobs", data=body, method="POST")
            assert status == 503

            _, metrics, _ = server.request("/metrics.json")
            solve = metrics["histograms"]["solve_latency_seconds"]
            mean = sum(v["sum"] for v in solve.values()) / sum(
                v["count"] for v in solve.values()
            )
            backlog = metrics["queue_depth"] + metrics["busy_workers"]
            expected = max(1.0, mean * max(1, backlog) / server.service.pool.size)
            assert int(headers["Retry-After"]) == int(expected + 0.999)
            assert payload["retry_after"] == int(expected + 0.999)
            server.service.pool.resume()
        finally:
            server.stop()

    def test_tenant_budget_answers_429_with_retry_after(self):
        server = ServerUnderTest(tenant_rate=0.001, tenant_burst=1.0).start()
        try:
            server.service.pool.pause()
            body = SAFE_TEXT.encode()
            headers = {"X-Tenant": "greedy"}
            assert server.request("/jobs", data=body, headers=headers, method="POST")[0] == 202
            status, payload, reply_headers = server.request(
                "/jobs", data=body, headers=headers, method="POST"
            )
            assert status == 429
            assert "Retry-After" in reply_headers
            _, metrics, _ = server.request("/metrics.json")
            assert metrics["budget_rejections"] == 1
            assert metrics["tenant_tokens"]["greedy"] < 1.0
        finally:
            server.stop()


class TestCliClient:
    def test_submit_wait_round_trip(self, server, tmp_path, capsys):
        model = tmp_path / "ring.aag"
        write_aag(token_ring(3, safe=True).aig, model)
        code = main(
            ["submit", str(model), "--url", server.base, "--wait", "60",
             "--timeout", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"status": "done"' in out
        assert '"result": "safe"' in out

    def test_submit_rejection_reported(self, tmp_path, capsys):
        server = ServerUnderTest(tenant_rate=0.001, tenant_burst=1.0).start()
        try:
            server.service.pool.pause()
            model = tmp_path / "ring.aag"
            write_aag(token_ring(3, safe=True).aig, model)
            args = ["submit", str(model), "--url", server.base, "--tenant", "t"]
            assert main(args) == 0
            assert main(args) == 2
            assert "rejected (429)" in capsys.readouterr().out
        finally:
            server.stop()
