"""The batch consumers through the service == their serial selves."""

import pytest

from repro.service import ServiceClient, run_batch
from repro.service.job import Job, JobResult, REJECTED, job_failure
from repro.verify.chaos import ChaosConfig, run_chaos
from repro.verify.fuzz import FuzzConfig, run_fuzz
from repro.workloads.programs import SOURCES


@pytest.fixture()
def client():
    with ServiceClient(backend="inprocess") as service_client:
        yield service_client


class _FlakyClient(ServiceClient):
    """Synthesizes admission rejections for the first two waits."""

    def __init__(self):
        super().__init__(backend="inprocess")
        self.rejections_left = 2

    def wait(self, job_id, timeout=None):
        result = super().wait(job_id, timeout=timeout)
        if self.rejections_left and result.ok:
            self.rejections_left -= 1
            return JobResult(
                job_id=job_id,
                status=REJECTED,
                failure=job_failure(
                    "admission", "QueueFull", "synthetic rejection"
                ),
            )
        return result


def test_run_batch_resubmits_retryable_rejections():
    jobs = [
        Job.from_source(SOURCES[name], ("CTP", "DCE"))
        for name in ("poly", "fft", "newton")
    ]
    with _FlakyClient() as client:
        results = run_batch(client, jobs)
        assert client.rejections_left == 0
        assert client.stats.submitted == len(jobs) + 2
    assert [r.status for r in results] == ["completed"] * len(jobs)
    assert [r.fingerprint for r in results] == [j.fingerprint for j in jobs]


def test_fuzz_service_path_matches_serial(client):
    config = FuzzConfig(iterations=3, size=10, opt_names=("CTP", "DCE"))
    serial = run_fuzz(config)
    via_service = run_fuzz(config, client=client)
    assert (serial.programs, serial.checks, serial.applications) == (
        via_service.programs,
        via_service.checks,
        via_service.applications,
    )
    assert len(serial.failures) == len(via_service.failures)
    assert client.stats.submitted > 0


def test_fuzz_broken_fixture_falls_back_to_serial(client):
    # a deliberately broken optimizer cannot cross a process boundary:
    # its checks run serially and still surface the divergence
    config = FuzzConfig(
        iterations=2, size=10, opt_names=("CTP", "BROKEN_DCE"),
        pipeline=False, shrink=False,
    )
    report = run_fuzz(config, client=client)
    serial = run_fuzz(config)
    assert len(report.failures) == len(serial.failures)
    assert report.checks == serial.checks


def test_fuzz_injected_optimizers_force_serial(client):
    from repro.opts.catalog import build_optimizer

    config = FuzzConfig(iterations=1, size=8, opt_names=("CTP",),
                        pipeline=False)
    submitted_before = client.stats.submitted
    report = run_fuzz(
        config, optimizers={"CTP": build_optimizer("CTP")}, client=client
    )
    assert report.programs == 1
    assert client.stats.submitted == submitted_before


def test_fuzz_windows_submissions_to_queue_limit():
    class _CountingClient(ServiceClient):
        """Tracks how many submissions are in flight at once."""

        def __init__(self, **settings):
            super().__init__(**settings)
            self.outstanding = 0
            self.max_outstanding = 0

        def submit(self, job):
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding,
                                       self.outstanding)
            return super().submit(job)

        def wait(self, job_id, timeout=None):
            result = super().wait(job_id, timeout=timeout)
            self.outstanding -= 1
            return result

    # 3 iterations x (3 opts + pipeline) = 12 jobs against a queue of 4:
    # eager submission would reject, the window never exceeds the limit
    config = FuzzConfig(iterations=3, size=10,
                        opt_names=("CTP", "DCE", "CFO"))
    with _CountingClient(backend="inprocess", queue_limit=4) as client:
        report = run_fuzz(config, client=client)
        assert client.stats.submitted == 12
        assert client.stats.rejected == 0
        assert client.max_outstanding <= 4
    serial = run_fuzz(config)
    assert (report.programs, report.checks, report.applications) == (
        serial.programs, serial.checks, serial.applications
    )


def test_fuzz_retries_rejected_submissions():
    config = FuzzConfig(iterations=2, size=10, opt_names=("CTP", "DCE"),
                        pipeline=False)
    with _FlakyClient() as client:
        report = run_fuzz(config, client=client)
        assert client.rejections_left == 0
    serial = run_fuzz(config)
    assert (report.programs, report.checks, report.applications) == (
        serial.programs, serial.checks, serial.applications
    )


def test_chaos_baselines_carry_quarantine_after(client, monkeypatch):
    jobs = []
    real_submit = client.submit

    def recording_submit(job):
        jobs.append(job)
        return real_submit(job)

    monkeypatch.setattr(client, "submit", recording_submit)
    config = ChaosConfig(seed=1, act_fault_rate=0.2)
    report = run_chaos(config, program_names=["newton"], client=client,
                       quarantine_after=7)
    assert report.ok
    assert [job.payload["quarantine_after"] for job in jobs] == [7]


def test_chaos_service_baselines_match_serial(client):
    config = ChaosConfig(seed=3, act_fault_rate=0.2)
    names = ["newton", "poly"]
    via_service = run_chaos(config, program_names=names, client=client)
    serial = run_chaos(config, program_names=names)
    assert via_service.ok and serial.ok
    for service_run, serial_run in zip(via_service.runs, serial.runs):
        assert (
            service_run.baseline_applications
            == serial_run.baseline_applications
        )
    assert client.stats.submitted == len(names)


def test_experiments_components_fan_out(client):
    from repro.experiments.runner import run_all_experiments
    from repro.workloads.suite import full_suite

    workloads = full_suite()[:3]
    serial = run_all_experiments(workloads)
    via_service = run_all_experiments(workloads, client=client)
    assert serial.claim_summary == via_service.claim_summary
    # deterministic sections render identically; only measured-time
    # columns (E5) may differ between any two runs
    assert serial.quality.table() == via_service.quality.table()
    assert serial.applicability.table() == via_service.applicability.table()
    assert serial.enabling.table() == via_service.enabling.table()
    assert client.stats.submitted == 7


def test_experiments_custom_workloads_stay_serial(client):
    from repro.experiments.runner import run_all_experiments
    from repro.workloads.suite import Workload

    custom = [Workload(name="tiny", source="program tiny\nend\n")]
    submitted_before = client.stats.submitted
    report = run_all_experiments(custom, client=client)
    assert client.stats.submitted == submitted_before
    assert report.claim_summary  # the study still ran (serially)


def test_run_experiment_component_unknown_name():
    from repro.experiments.runner import run_experiment_component

    with pytest.raises(KeyError):
        run_experiment_component("nonsense")
