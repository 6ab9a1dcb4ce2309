"""Unit tests for the interactive optimizer session (constructor)."""

import pytest

from repro.analysis.dependence import compute_dependences
from repro.genesis.session import OptimizerSession, SessionError
from repro.opts.catalog import standard_optimizers

SOURCE = """
program t
  integer a, b, c
  a = 2
  b = a * 3
  c = b + a
  write c
end
"""


@pytest.fixture()
def session():
    instance = OptimizerSession.from_source(
        SOURCE,
        optimizers=standard_optimizers(("CTP", "CFO", "DCE")).values(),
    )
    return instance


class TestBasics:
    def test_from_source_parses(self, session):
        assert len(session.program) == 4

    def test_list_optimizations(self, session):
        assert session.list_optimizations() == ["CFO", "CTP", "DCE"]

    def test_points(self, session):
        assert len(session.points("CTP")) == 2
        assert session.points("CFO") == []

    def test_unknown_optimizer(self, session):
        with pytest.raises(SessionError):
            session.points("NOPE")

    def test_dependences_cached_by_version(self, session):
        first = session.dependences
        assert session.dependences is first
        misses = session.analysis_stats.misses["dependences"]
        session.apply("CTP")
        graph = session.dependences
        assert session.analysis_stats.misses["dependences"] > misses
        assert graph.edge_set() == (
            compute_dependences(session.program).edge_set()
        )


class TestStaleGraphRule:
    def test_recompute_off_serves_the_graph_as_last_refreshed(self, session):
        before = session.dependences.edge_set()
        # a recompute-on apply refreshes between its applications, and
        # once more after the last one, when it finds no further point
        session.apply("CTP", all_points=True)
        current = compute_dependences(session.program).edge_set()
        assert current != before
        session.execute_command("recompute off")
        assert session._maybe_graph().edge_set() == current
        misses = session.analysis_stats.misses["dependences"]
        session.apply("CFO", all_points=True)  # b := 6
        session.apply("CTP", all_points=True)  # c := 6 + 2, over b -> c
        # the program changed, and nothing refreshed the graph
        assert session.analysis_stats.misses["dependences"] == misses
        assert session._maybe_graph().edge_set() == current
        assert compute_dependences(session.program).edge_set() != current
        session.execute_command("recompute on")
        assert session._maybe_graph().edge_set() == (
            compute_dependences(session.program).edge_set()
        )


class TestApplication:
    def test_apply_first_point(self, session):
        result = session.apply("CTP")
        assert result.applied == 1

    def test_apply_all_then_fold(self, session):
        session.apply("CTP", all_points=True)
        result = session.apply("CFO", all_points=True)
        assert result.applied >= 1
        assert "2 * 3" not in session.show()

    def test_apply_at_point(self, session):
        points = session.points("CTP")
        result = session.apply("CTP", point=len(points) - 1)
        assert result.applied == 1

    def test_sequence(self, session):
        results = session.apply_sequence(["CTP", "CFO", "DCE"])
        assert [r.optimizer for r in results] == ["CTP", "CFO", "DCE"]
        assert session.applications()

    def test_reset_restores_original(self, session):
        original = session.show()
        session.apply_sequence(["CTP", "CFO", "DCE"])
        assert session.show() != original
        session.reset()
        assert session.show() == original

    def test_history_records_events(self, session):
        session.apply("CTP")
        session.reset()
        commands = [event.command for event in session.history]
        assert commands == ["apply CTP", "reset"]


class TestCommandInterface:
    def test_list_command(self, session):
        assert session.execute_command("list") == "CFO\nCTP\nDCE"

    def test_points_command(self, session):
        output = session.execute_command("points CTP")
        assert output.startswith("0:")

    def test_points_command_empty(self, session):
        assert "no application points" in session.execute_command(
            "points CFO"
        )

    def test_apply_commands(self, session):
        assert "1 application" in session.execute_command("apply CTP")
        assert "application" in session.execute_command("apply CTP all")

    def test_apply_at_index_command(self, session):
        output = session.execute_command("apply CTP 0")
        assert "1 application" in output

    def test_recompute_toggle(self, session):
        assert "False" in session.execute_command("recompute off")
        assert session.recompute_dependences is False
        assert "True" in session.execute_command("recompute on")

    def test_deps_command(self, session):
        output = session.execute_command("deps")
        assert "flow:" in output

    def test_show_and_history(self, session):
        assert "a := 2" in session.execute_command("show")
        session.execute_command("apply CTP")
        assert "apply CTP" in session.execute_command("history")

    def test_reset_command(self, session):
        session.execute_command("apply CTP all")
        session.execute_command("reset")
        assert "b := a * 3" in session.show()

    def test_unknown_command(self, session):
        with pytest.raises(SessionError):
            session.execute_command("dance")

    def test_empty_command(self, session):
        assert session.execute_command("") == ""

    def test_override_command(self, session):
        output = session.execute_command("override CTP 0")
        assert "application" in output


class TestOverrideListing:
    def test_override_applies_the_point_its_listing_shows(
        self, optimizers, suite_by_name
    ):
        """``points DCE override`` lists the points ``override DCE N``
        counts through.  On ``tridiag`` the enforced listing shows one
        point, so its index 0 names another statement than the
        override's index 0."""

        def fresh():
            session = OptimizerSession(
                program=suite_by_name["tridiag"].load()
            )
            session.register(optimizers["DCE"])
            return session

        assert fresh().execute_command("points DCE") == "0: Si=23"
        lines = fresh().execute_command("points DCE override").splitlines()
        assert len(lines) == 12
        for index, line in enumerate(lines):
            session = fresh()
            session.execute_command(f"override DCE {index}")
            (record,) = session.history[-1].result.applications
            shown = ", ".join(
                f"{name}={value}"
                for name, value in sorted(record.bindings.items())
            )
            assert line == f"{index}: {shown}"
