"""Tests for the ``genesis`` command-line tool."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_catalog_name(self, capsys):
        code, out, err = run_cli(capsys, "generate", "CTP")
        assert code == 0
        assert "def act_CTP(ctx):" in out
        assert "CTP:" in err

    def test_extended_name(self, capsys):
        code, out, _err = run_cli(capsys, "generate", "RVS")
        assert code == 0
        assert "def pre_RVS(ctx):" in out

    def test_from_file(self, capsys, tmp_path):
        spec = tmp_path / "nop.gospel"
        spec.write_text(
            """
            TYPE
              Stmt: Si;
            PRECOND
              Code_Pattern
                any Si: Si.opc == assign;
              Depend
            ACTION
              modify(Si.opr_2, Si.opr_2);
            """
        )
        code, out, _err = run_cli(capsys, "generate", str(spec))
        assert code == 0
        assert "def act_NOP(ctx):" in out

    def test_policy_flag(self, capsys):
        code, out, _err = run_cli(
            capsys, "generate", "PAR", "--policy", "deps"
        )
        assert code == 0
        assert "lib.dep_candidates(ctx," in out


class TestOptimize:
    def test_workload_by_name(self, capsys):
        code, out, _err = run_cli(
            capsys, "optimize", "integrate", "--opts", "CTP,CFO,DCE"
        )
        assert code == 0
        assert "CTP:" in out and "DCE:" in out

    def test_show_prints_program(self, capsys):
        code, out, _err = run_cli(
            capsys, "optimize", "newton", "--opts", "CTP", "--show"
        )
        assert code == 0
        assert "do k = 1, 12" in out  # maxit propagated

    def test_once_flag(self, capsys):
        code, out, _err = run_cli(
            capsys, "optimize", "poly", "--opts", "CTP", "--once"
        )
        assert code == 0
        assert "1 application(s)" in out

    def test_source_file(self, capsys, tmp_path):
        source = tmp_path / "p.f"
        source.write_text(
            "program p\n  integer x\n  x = 2 * 3\n  write x\nend\n"
        )
        code, out, _err = run_cli(
            capsys, "optimize", str(source), "--opts", "CFO", "--show"
        )
        assert code == 0
        assert "x := 6" in out


class TestOthers:
    def test_suite_lists_programs(self, capsys):
        code, out, _err = run_cli(capsys, "suite")
        assert code == 0
        assert "newton" in out and "ordering" in out

    def test_no_command_shows_help(self, capsys):
        code, out, _err = run_cli(capsys)
        assert code == 2
        assert "usage" in out.lower()

    def test_experiments_subset(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, _out, _err = run_cli(
            capsys, "experiments", "--only", "E6", "--out", str(target)
        )
        assert code == 0
        assert "E6a" in target.read_text()

    def test_interact_reads_commands(self, capsys, monkeypatch):
        commands = iter(["list", "apply CTP all", "quit"])
        monkeypatch.setattr(
            "builtins.input", lambda _prompt: next(commands)
        )
        code, out, _err = run_cli(
            capsys, "interact", "integrate", "--opts", "CTP,DCE"
        )
        assert code == 0
        assert "CTP" in out


class TestServiceVerbs:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"genesis {__version__}"
        assert __version__ != "0+unknown"

    def test_submit_workload(self, capsys):
        code, out, _err = run_cli(
            capsys, "submit", "fft", "--opts", "CTP,DCE",
            "--backend", "inprocess", "--show",
        )
        assert code == 0
        assert "completed" in out
        assert "program fft" in out

    def test_submit_bad_program_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.f"
        bad.write_text("this is not fortran")
        code, _out, err = run_cli(
            capsys, "submit", str(bad), "--backend", "inprocess"
        )
        assert code == 3
        assert "error" in err

    def test_submit_unknown_optimization(self, capsys):
        code, _out, err = run_cli(
            capsys, "submit", "fft", "--opts", "NOSUCH",
            "--backend", "inprocess",
        )
        assert code == 3
        assert "unknown optimization" in err

    def test_batch_caches_duplicates(self, capsys, tmp_path):
        out_json = tmp_path / "results.json"
        code, out, _err = run_cli(
            capsys, "batch", "fft", "newton", "fft",
            "--opts", "CTP,DCE", "--backend", "inprocess",
            "--json", str(out_json),
        )
        assert code == 0
        assert "[cached]" in out
        import json

        payload = json.loads(out_json.read_text())
        assert len(payload["results"]) == 3
        assert payload["results"][2]["cached"]

    def test_batch_prints_the_stats_summary_line(self, capsys):
        code, out, _err = run_cli(
            capsys, "batch", "fft", "newton",
            "--opts", "CTP,DCE", "--backend", "inprocess",
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("service: 2 submitted")

    @pytest.mark.slow
    def test_batch_windows_to_the_queue_limit(self, capsys):
        code, out, _err = run_cli(
            capsys, "batch", "fft", "newton", "poly", "gauss",
            "--opts", "CTP,DCE", "--workers", "1", "--queue-limit", "1",
        )
        assert code == 0, out
        assert "4 completed" in out and "0 rejected" in out

    def test_serve_requires_listen(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--backend", "inprocess"])
        assert excinfo.value.code == 2
        assert "--listen" in capsys.readouterr().err

    @pytest.mark.parametrize("command, absent", [
        ("serve", ("--connect", "--retry-attempts", "--connect-timeout",
                   "--request-timeout")),
        ("infer", ("--workers", "--backend", "--connect")),
    ])
    def test_flags_a_verb_does_not_read_are_gone(
        self, capsys, command, absent
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert not [flag for flag in absent if flag in usage]

    def test_fuzz_workers_flag(self, capsys):
        code, out, _err = run_cli(
            capsys, "fuzz", "--iterations", "2", "--opts", "CTP,DCE",
            "--workers", "1",
        )
        assert code == 0
        assert "OK" in out


class TestSearch:
    ARGS = (
        "search", "integrate",
        "--opts", "CTP,CFO,DCE", "--depth", "2", "--budget", "20",
    )

    def test_search_workload_certifies(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "search.json"
        code, out, _err = run_cli(
            capsys, *self.ARGS, "--json", str(out_json)
        )
        assert code == 0
        assert "best pipeline" in out
        assert "oracle: PASSED" in out
        payload = json.loads(out_json.read_text())
        assert payload[0]["name"] == "integrate"
        assert payload[0]["certified"] is True
        assert payload[0]["best_sequence"]

    def test_search_is_bit_reproducible(self, capsys):
        code_a, out_a, _ = run_cli(capsys, *self.ARGS, "--seed", "7")
        code_b, out_b, _ = run_cli(capsys, *self.ARGS, "--seed", "7")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_search_through_service_workers(self, capsys):
        code, out, _err = run_cli(
            capsys, *self.ARGS, "--workers", "1",
            "--backend", "inprocess", "--strategy", "iterated",
            "--iterations", "2",
        )
        assert code == 0
        assert "cache hit" in out

    def test_search_unknown_pass(self, capsys):
        code, _out, err = run_cli(
            capsys, "search", "integrate", "--opts", "NOSUCH"
        )
        assert code == 3
        assert "unknown optimization" in err

    def test_interact_search_command(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("search greedy 2 12\nquit\n")
        )
        code, out, _err = run_cli(
            capsys, "interact", "integrate", "--opts", "CTP,CFO,DCE"
        )
        assert code == 0
        assert "best pipeline" in out
