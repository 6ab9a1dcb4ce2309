"""The --verify gate: driver, pipeline, session, and CLI wiring."""

import pytest

from repro.cli import main
from repro.frontend.lower import parse_program
from repro.genesis.driver import DriverOptions, apply_at_point, run_optimizer
from repro.genesis.pipeline import optimize
from repro.genesis.session import OptimizerSession
from repro.opts.catalog import build_optimizer
from repro.verify.fixtures import broken_optimizer
from repro.verify.oracle import VerificationError

#: a constant whose propagation is blocked by a conditional
#: redefinition: sound CTP rejects it, BROKEN_CTP propagates anyway
#: and miscompiles every environment where the branch is taken.
REDEFINED = """
program t
  integer x, y
  x = 1
  read y
  if (y /= 0) then
    x = 2
  end if
  write x
end
"""


class TestDriverGate:
    def test_sound_optimizer_passes_verification(self):
        program = parse_program(REDEFINED)
        result = run_optimizer(
            build_optimizer("CTP"), program,
            DriverOptions(apply_all=True, verify=True),
        )
        # whatever CTP did (including nothing), verification held
        assert result.optimizer == "CTP"

    def test_broken_optimizer_contained(self):
        program = parse_program(REDEFINED)
        pristine = list(map(str, parse_program(REDEFINED)))
        result = run_optimizer(
            broken_optimizer("BROKEN_CTP"), program,
            DriverOptions(apply_all=True, verify=True),
        )
        # every miscompiling application was rolled back and recorded
        assert result.failures and not result.applications
        assert all(f.phase == "verify" for f in result.failures)
        assert list(map(str, program)) == pristine

    def test_broken_optimizer_raises_on_request(self):
        program = parse_program(REDEFINED)
        pristine = list(map(str, parse_program(REDEFINED)))
        with pytest.raises(VerificationError) as excinfo:
            run_optimizer(
                broken_optimizer("BROKEN_CTP"), program,
                DriverOptions(
                    apply_all=True, verify=True, on_failure="raise"
                ),
            )
        assert "BROKEN_CTP" in str(excinfo.value)
        assert not excinfo.value.report.equivalent
        # "raise" still rolls back before propagating
        assert list(map(str, program)) == pristine

    def test_gate_off_lets_miscompile_through(self):
        program = parse_program(REDEFINED)
        result = run_optimizer(
            broken_optimizer("BROKEN_CTP"), program,
            DriverOptions(apply_all=True),
        )
        assert result.applications  # silently miscompiled

    def test_apply_at_point_verifies(self):
        program = parse_program(REDEFINED)
        pristine = list(map(str, parse_program(REDEFINED)))
        result = apply_at_point(
            broken_optimizer("BROKEN_CTP"), program, 0,
            options=DriverOptions(verify=True),
        )
        assert result.failures and not result.applications
        assert list(map(str, program)) == pristine
        with pytest.raises(VerificationError):
            apply_at_point(
                broken_optimizer("BROKEN_CTP"), program, 0,
                options=DriverOptions(verify=True, on_failure="raise"),
            )

    def test_apply_at_point_oracle_follows_options(self, monkeypatch):
        import repro.verify.oracle as oracle_mod

        built = []
        real = oracle_mod.EquivalenceOracle

        def spy(**kwargs):
            built.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(oracle_mod, "EquivalenceOracle", spy)
        result = apply_at_point(
            broken_optimizer("BROKEN_CTP"), parse_program(REDEFINED), 0,
            options=DriverOptions(verify=True, verify_trials=9, verify_seed=7),
        )
        assert result.failures[0].phase == "verify"
        assert built == [{"trials": 9, "seed": 7}]


class TestPipelineGate:
    def test_verified_pipeline_succeeds_on_catalog(self):
        program = parse_program(REDEFINED)
        report = optimize(
            program,
            [build_optimizer("CTP"), build_optimizer("DCE")],
            verify=True,
        )
        assert report.program is not program  # copy by default

    def test_verified_pipeline_rejects_broken(self):
        program = parse_program(REDEFINED)
        report = optimize(
            program, [broken_optimizer("BROKEN_CTP")], verify=True
        )
        # contained: the miscompile never survives into the output
        assert report.failures()
        assert report.total_applications == 0
        assert list(map(str, report.program)) == list(
            map(str, parse_program(REDEFINED))
        )
        with pytest.raises(VerificationError):
            optimize(
                program,
                [broken_optimizer("BROKEN_CTP")],
                options=DriverOptions(
                    apply_all=True, verify=True, on_failure="raise"
                ),
            )
        # the caller's program is untouched by the default copy
        assert list(map(str, program)) == list(
            map(str, parse_program(REDEFINED))
        )


class TestSessionGate:
    def test_verify_command_toggles(self):
        session = OptimizerSession.from_source(REDEFINED)
        assert not session.verify
        assert "True" in session.execute_command("verify on")
        assert session.verify
        assert "False" in session.execute_command("verify off")
        assert not session.verify

    def test_session_apply_respects_verify(self):
        session = OptimizerSession.from_source(
            REDEFINED, [broken_optimizer("BROKEN_CTP")]
        )
        session.verify = True
        before = session.show()
        result = session.apply("BROKEN_CTP")
        # contained: rolled back, recorded, session program intact
        assert result.failures and not result.applications
        assert session.show() == before

    def test_session_verified_sound_apply(self):
        session = OptimizerSession.from_source(
            REDEFINED, [build_optimizer("CTP")]
        )
        session.execute_command("verify on")
        session.execute_command("apply CTP all")  # must not raise


class TestCliWiring:
    def test_optimize_verify_flag(self, tmp_path, capsys):
        source = tmp_path / "p.f"
        source.write_text(REDEFINED)
        code = main(["optimize", str(source), "--opts", "CTP", "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified semantics-preserving" in out

    def test_fuzz_subcommand_clean_run(self, capsys):
        code = main([
            "fuzz", "--seed", "0", "--iterations", "2",
            "--opts", "CTP,DCE", "--trials", "1", "--no-pipeline",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_fuzz_subcommand_catches_and_replays(self, tmp_path, capsys):
        out_dir = tmp_path / "repros"
        code = main([
            "fuzz", "--seed", "0", "--iterations", "4",
            "--opts", "BROKEN_CTP", "--trials", "2",
            "--no-pipeline", "--out", str(out_dir),
        ])
        assert code == 1
        repros = sorted(out_dir.glob("*.f"))
        assert repros
        capsys.readouterr()
        assert main(["fuzz", "--replay", str(repros[0])]) == 1
        assert "DIVERGENT" in capsys.readouterr().out
