"""The Job/JobResult wire model: serialization, fingerprints, keys."""

import pytest

from repro._version import __version__
from repro.frontend.errors import FrontendError
from repro.frontend.lower import parse_program
from repro.genesis.driver import DriverOptions
from repro.service.job import (
    COMPLETED,
    FAILED,
    Job,
    JobError,
    JobResult,
    job_failure,
    options_from_dict,
    options_to_dict,
)
from repro.workloads.programs import SOURCES


def test_options_round_trip_all_fields():
    options = DriverOptions(
        apply_all=True,
        max_applications=7,
        max_rollbacks=3,
        deadline_seconds=1.5,
        max_match_attempts=1000,
    )
    rebuilt = options_from_dict(options_to_dict(options))
    assert rebuilt == options


def test_unknown_option_field_rejected():
    with pytest.raises(JobError):
        options_from_dict({"no_such_knob": 1})


def test_job_round_trip_preserves_identity():
    job = Job.from_source(
        SOURCES["fft"], ("CTP", "DCE"),
        DriverOptions(apply_all=True, max_rollbacks=2),
        deadline_seconds=9.0,
    )
    rebuilt = Job.from_dict(job.to_dict())
    assert rebuilt.source == job.source
    assert rebuilt.opt_names == job.opt_names
    assert rebuilt.options == job.options
    assert rebuilt.fingerprint == job.fingerprint
    assert rebuilt.deadline_seconds == 9.0
    assert rebuilt.cache_key() == job.cache_key()


def test_from_program_and_from_source_agree():
    program = parse_program(SOURCES["newton"])
    by_program = Job.from_program(program, ("CTP",))
    by_source = Job.from_source(by_program.source, ("CTP",))
    assert by_program.fingerprint == by_source.fingerprint
    assert by_program.cache_key() == by_source.cache_key()


def test_fingerprint_is_canonical_program_hash():
    job = Job.from_source(SOURCES["poly"], ("DCE",))
    assert job.fingerprint == parse_program(SOURCES["poly"]).fingerprint()


def test_malformed_source_rejected_at_admission():
    with pytest.raises(FrontendError):
        Job.from_source("", ("CTP",))
    with pytest.raises(FrontendError):
        Job.from_source("this is not fortran", ("CTP",))


def test_cache_key_sensitivity():
    base = Job.from_source(SOURCES["fft"], ("CTP", "DCE"))
    assert base.cache_key() == Job.from_source(
        SOURCES["fft"], ("CTP", "DCE")
    ).cache_key()
    # program, sequence (including order), and options all matter
    assert base.cache_key() != Job.from_source(
        SOURCES["newton"], ("CTP", "DCE")
    ).cache_key()
    assert base.cache_key() != Job.from_source(
        SOURCES["fft"], ("DCE", "CTP")
    ).cache_key()
    assert base.cache_key() != Job.from_source(
        SOURCES["fft"], ("CTP", "DCE"), DriverOptions(apply_all=False)
    ).cache_key()


def test_cache_key_embeds_package_version(monkeypatch):
    job = Job.from_source(SOURCES["fft"], ("CTP",))
    before = job.cache_key()
    monkeypatch.setattr("repro.service.job.__version__", "0.0.0-test")
    assert job.cache_key() != before
    assert __version__ != "0.0.0-test"


def test_result_round_trip_with_failure():
    result = JobResult(
        job_id=4,
        status=FAILED,
        fingerprint="abc",
        failure=job_failure("worker", "WorkerCrashed", "died (exit 23)"),
        worker="pid:123",
    )
    rebuilt = JobResult.from_dict(result.to_dict())
    assert rebuilt.status == FAILED
    assert not rebuilt.ok
    assert rebuilt.failure is not None
    assert rebuilt.failure.error_type == "WorkerCrashed"
    assert rebuilt.failure.restored == "isolation"
    assert rebuilt.worker == "pid:123"


def test_result_program_parses_back():
    result = JobResult(
        job_id=1, status=COMPLETED, source=SOURCES["poly"]
    )
    assert result.program().fingerprint() == parse_program(
        SOURCES["poly"]
    ).fingerprint()
    with pytest.raises(JobError):
        JobResult(job_id=2, status=FAILED).program()


def test_experiment_job_keys_on_payload():
    one = Job.experiment("ordering")
    two = Job.experiment("quality")
    assert one.fingerprint != two.fingerprint
    assert one.cache_key() != two.cache_key()
    selected = Job.experiment("ordering")
    selected.payload["workloads"] = ["fft"]
    assert selected.cache_key() != one.cache_key()
