"""The asyncio server: dispatch rules, real TCP sessions, drains.

Unit tests drive ``_dispatch`` directly (no sockets); integration
tests run real ``genesis serve --listen`` subprocesses through the
``server_factory`` fixture and abuse them the way an operator's
infrastructure would: concurrent clients, SIGTERM mid-fleet, severed
connections, warm restarts over a shared cache directory.
"""

import json

import pytest

from repro import __version__
from repro.genesis.driver import DriverOptions
from repro.service import run_batch
from repro.service.job import Job
from repro.service.net.client import NetworkServiceClient, RetryPolicy
from repro.service.net.server import (
    OptimizationServer,
    ServeConfig,
    _Connection,
    _parse_hostport,
)
from repro.service.scheduler import ServiceConfig, ServiceError
from repro.workloads.programs import SOURCES


def _job(name="poly", opts=("CTP", "DCE")):
    return Job.from_source(
        SOURCES[name], opts, DriverOptions(apply_all=True)
    )


class _Sink:
    """Collects what the server would have written to one connection."""

    def __init__(self):
        self.conn = _Connection(writer=None)
        self.conn.send = self._send  # bypass the outbox/writer task
        self.sent = []

    def _send(self, payload, truncate=False):
        self.sent.append(payload)


def _server(queue_limit=256, **overrides):
    service = ServiceConfig(
        backend="inprocess", max_workers=1, queue_limit=queue_limit
    )
    return OptimizationServer(
        ServeConfig(service=service, **overrides), log=lambda message: None
    )


class TestDispatchUnit:
    def test_hello_reports_identity_and_limits(self):
        server = _server(queue_limit=7, max_pending=3)
        sink = _Sink()
        server._dispatch(sink.conn, {"cmd": "hello", "id": 1})
        [reply] = sink.sent
        assert reply["id"] == 1
        assert reply["queue_limit"] == 7
        assert reply["max_pending"] == 3
        assert reply["backend"] == "inprocess"
        assert reply["draining"] is False
        assert reply["version"] == __version__

    def test_submit_resolves_inline_with_inprocess_backend(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 2, "job": _job().to_dict(),
        })
        [reply] = sink.sent
        assert reply["id"] == 2
        assert reply["result"]["status"] == "completed"

    def test_draining_submit_is_retryable_rejection(self):
        server = _server()
        server._draining = True
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 3, "job": _job().to_dict(),
        })
        [reply] = sink.sent
        assert reply["error_type"] == "ServerDraining"
        assert reply["retryable"] is True

    def test_backpressure_over_max_pending(self):
        server = _server(max_pending=0)
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 4, "job": _job().to_dict(),
        })
        [reply] = sink.sent
        assert reply["error_type"] == "Backpressure"
        assert reply["retryable"] is True

    def test_malformed_job_is_terminal_error(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 5, "opts": "ZZZ",
            "source": SOURCES["poly"],
        })
        [reply] = sink.sent
        assert "unknown optimization" in reply["error"]
        assert reply["retryable"] is False

    def test_legacy_workload_spelling_completes(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 10, "workload": "fft", "opts": "CTP,DCE",
        })
        [reply] = sink.sent
        assert reply["result"]["status"] == "completed"
        assert reply["result"]["source"].startswith("program fft")

    def test_legacy_spelling_accepts_inferred_specs(self):
        """The legacy spelling resolves names through the same catalog
        lookup as ``genesis submit``, inferred specs included."""
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 11, "workload": "poly",
            "opts": "INF_MUL_1X",
        })
        [reply] = sink.sent
        assert "error" not in reply, reply
        assert reply["result"]["status"] == "completed"

    def test_experiment_job_is_terminal_job_error(self):
        """An experiment's result is a Python object the JSON wire
        cannot carry, so the server refuses the job instead of running
        it and replying ``completed`` with no payload."""
        job = Job.experiment("lur_variants")
        job.payload["workloads"] = ["poly"]
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 15, "job": job.to_dict(),
        })
        [reply] = sink.sent
        assert reply["error_type"] == "JobError"
        assert reply["retryable"] is False
        assert server.service.stats.submitted == 0

    def test_unknown_workload_is_terminal_job_error(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 12, "workload": "missing",
        })
        [reply] = sink.sent
        assert "unknown workload" in reply["error"]
        assert reply["error_type"] == "JobError"
        assert reply["retryable"] is False

    def test_stats_reply_counts_submissions(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 13, "job": _job().to_dict(),
        })
        server._dispatch(sink.conn, {"cmd": "stats", "id": 14})
        reply = sink.sent[-1]
        assert reply["stats"]["submitted"] == 1
        assert "1 submitted" in reply["summary"]

    def test_unknown_command_rejected(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {"cmd": "frobnicate", "id": 6})
        [reply] = sink.sent
        assert "unknown command" in reply["error"]

    def test_wait_for_unknown_job_errors(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {"cmd": "wait", "id": 7,
                                     "job_id": 999})
        [reply] = sink.sent
        assert reply["error_type"] == "ServiceError"

    def test_events_subscription_streams_transitions(self):
        server = _server()
        sink = _Sink()
        server._dispatch(sink.conn, {
            "cmd": "submit", "id": 8, "job": _job().to_dict(),
            "events": True,
        })
        kinds = [m.get("event") for m in sink.sent]
        assert "job" in kinds, "status transitions were streamed"
        statuses = [
            m["status"] for m in sink.sent if m.get("event") == "job"
        ]
        assert statuses[-1] == "completed"
        # and the result itself still resolved the request
        assert sink.sent[-1].get("result", {}).get("status") == "completed"


class TestHostPortParsing:
    def test_forms(self):
        assert _parse_hostport("0.0.0.0:99") == ("0.0.0.0", 99)
        assert _parse_hostport(":99") == ("127.0.0.1", 99)
        assert _parse_hostport("99") == ("127.0.0.1", 99)

    def test_bad_port_raises_service_error(self):
        with pytest.raises(ServiceError):
            _parse_hostport("host:not-a-port")


class TestRealServer:
    def test_end_to_end_with_cache_hits(self, server_factory):
        server = server_factory("--backend", "inprocess")
        with NetworkServiceClient("127.0.0.1", server.port) as client:
            first = client.optimize_source(SOURCES["poly"], ("CTP", "DCE"))
            second = client.optimize_source(SOURCES["poly"], ("CTP", "DCE"))
        assert first.status == "completed" and not first.cached
        assert second.cached and second.source == first.source

    def test_concurrent_clients_share_one_service(self, server_factory):
        server = server_factory("--backend", "inprocess")
        with NetworkServiceClient("127.0.0.1", server.port) as one, \
                NetworkServiceClient("127.0.0.1", server.port) as two:
            a = one.optimize_source(SOURCES["fft"], ("CTP", "DCE"))
            b = two.optimize_source(SOURCES["fft"], ("CTP", "DCE"))
        assert a.status == b.status == "completed"
        assert b.cached, "second client hit the first client's result"

    def test_batch_in_submission_order(self, server_factory):
        server = server_factory("--backend", "inprocess")
        jobs = [_job("poly"), _job("fft"), _job("poly", ("CFO", "DCE"))]
        with NetworkServiceClient("127.0.0.1", server.port) as client:
            results = run_batch(client, jobs)
        assert [r.fingerprint for r in results] == [
            j.fingerprint for j in jobs
        ]
        assert all(r.status == "completed" for r in results)

    def test_chaos_disconnect_is_survived(self, server_factory):
        """Severed-mid-response connections only cost retries."""
        server = server_factory(
            "--backend", "inprocess",
            "--chaos-disconnect", "0.5", "--chaos-seed", "11",
        )
        client = NetworkServiceClient(
            "127.0.0.1", server.port,
            retry=RetryPolicy(
                attempts=8, base_delay=0.01, max_delay=0.1, seed=1
            ),
        )
        with client:
            results = [
                client.optimize_source(SOURCES[name], ("CTP", "DCE"))
                for name in ("poly", "fft", "poly")
            ]
        assert all(r.status == "completed" for r in results)
        assert client.attempts > 3, "some responses were severed"

    def test_shutdown_command_drains_exit_zero(self, server_factory):
        server = server_factory("--backend", "inprocess")
        with NetworkServiceClient("127.0.0.1", server.port) as client:
            client.optimize_source(SOURCES["poly"], ("CTP", "DCE"))
            client.shutdown_server()
        assert server.proc.wait(timeout=30) == 0
        assert "draining" in server.log_text()


class TestWarmRestart:
    def test_sigterm_then_restart_serves_from_disk(
        self, server_factory, tmp_path
    ):
        """The satellite-4 scenario: batch, drain, restart, re-batch.

        The second lifetime must serve ~100% from the persistent tier
        with byte-identical results."""
        cache_dir = str(tmp_path / "shared-cache")
        jobs = [
            _job("poly", ("CTP", "DCE")),
            _job("fft", ("CTP", "CFO", "DCE")),
            _job("poly", ("CFO", "DCE")),
            _job("fft", ("CTP", "DCE")),
        ]
        first_server = server_factory(
            "--backend", "inprocess", "--cache-dir", cache_dir
        )
        with NetworkServiceClient(
            "127.0.0.1", first_server.port
        ) as client:
            cold = run_batch(client, jobs)
        assert first_server.sigterm() == 0, "SIGTERM drain exits 0"
        assert all(r.status == "completed" for r in cold)

        second_server = server_factory(
            "--backend", "inprocess", "--cache-dir", cache_dir
        )
        with NetworkServiceClient(
            "127.0.0.1", second_server.port
        ) as client:
            warm = run_batch(client, jobs)
            remote = client.stats
        disk = remote["disk"]
        assert all(r.status == "completed" for r in warm)
        assert [r.source for r in warm] == [r.source for r in cold], (
            "warm results must be byte-identical to the cold run"
        )
        assert all(r.cached for r in warm)
        served = disk["hits"] + disk["misses"]
        assert served > 0 and disk["hits"] / served >= 0.95, (
            f"warm restart must be >=95% disk-served, got {disk}"
        )

    def test_sigterm_with_no_traffic_exits_zero(self, server_factory):
        server = server_factory("--backend", "inprocess")
        assert server.sigterm() == 0
