"""Session error paths: bad requests become history, never aborts."""

import pytest

from repro.genesis.session import OptimizerSession, SessionError
from repro.opts.catalog import build_optimizer
from repro.verify.chaos import ChaosConfig, chaotic

SOURCE = """
program t
  integer x, y, z
  x = 1
  y = x + 2
  z = x + y
  write z
end
"""


def _session():
    return OptimizerSession.from_source(SOURCE, [build_optimizer("CTP")])


class TestErrorEvents:
    def test_unknown_optimizer_is_an_event(self):
        session = _session()
        with pytest.raises(SessionError):
            session.execute_command("apply NOPE")
        event = session.history[-1]
        assert event.error and "NOPE" in event.error
        # the session keeps working afterwards
        assert "CTP" in session.execute_command("list")

    def test_malformed_command_is_an_event(self):
        session = _session()
        with pytest.raises(SessionError) as excinfo:
            session.execute_command("apply CTP notanumber")
        assert "malformed command" in str(excinfo.value)
        event = session.history[-1]
        assert event.error and "malformed" in event.error
        assert "CTP" in session.execute_command("list")

    def test_unknown_command_is_an_event(self):
        session = _session()
        with pytest.raises(SessionError):
            session.execute_command("frobnicate everything")
        assert session.history[-1].error
        assert session.history[-1].command == "frobnicate everything"

    def test_each_error_recorded_exactly_once(self):
        session = _session()
        with pytest.raises(SessionError):
            session.execute_command("apply NOPE")
        errors = [event for event in session.history if event.error]
        assert len(errors) == 1

    def test_stale_point_apply_is_noted_not_fatal(self):
        session = _session()
        points = session.points("CTP")
        result = session.apply("CTP", point=len(points) + 50)
        assert not result.applications and not result.failures
        event = session.history[-1]
        assert event.error is None
        assert event.note and "no application point" in event.note
        # the program is untouched and the session continues
        assert session.apply("CTP", all_points=True).applications

    @pytest.mark.parametrize(
        "command", ["apply CTP -1", "apply CTP -2", "override CTP -1"]
    )
    def test_negative_point_is_noted_not_fatal(self, command):
        session = _session()
        before = session.execute_command("show")
        session.execute_command(command)
        event = session.history[-1]
        assert event.error is None
        assert event.note and "no application point" in event.note
        assert session.execute_command("show") == before

    def test_errors_show_in_history_listing(self):
        session = _session()
        with pytest.raises(SessionError):
            session.execute_command("apply NOPE")
        listing = session.execute_command("history")
        assert "error:" in listing


class TestQuarantineCommands:
    def _broken_session(self):
        session = OptimizerSession.from_source(SOURCE, quarantine_after=2)
        session.register(
            chaotic(
                build_optimizer("CTP"),
                ChaosConfig(seed=0, act_fault_rate=1.0),
            )
        )
        return session

    def test_apply_refuses_quarantined_optimizer(self):
        session = self._broken_session()
        result = session.apply("CTP", all_points=True)
        assert result.stopped == "quarantined"
        with pytest.raises(SessionError) as excinfo:
            session.apply("CTP")
        assert "quarantined" in str(excinfo.value)
        assert session.history[-1].error

    def test_health_and_revive_commands(self):
        session = self._broken_session()
        session.apply("CTP", all_points=True)
        assert "CTP" in session.execute_command("health")
        assert "QUARANTINED" in session.execute_command("health")
        assert "revived" in session.execute_command("revive CTP")
        # after revive the apply is accepted again (and contained)
        result = session.apply("CTP", all_points=True)
        assert result.failures

    def test_revive_unknown_optimizer_is_an_event(self):
        session = self._broken_session()
        with pytest.raises(SessionError):
            session.execute_command("revive NOPE")
        assert session.history[-1].error

    def test_stats_includes_health(self):
        session = self._broken_session()
        session.apply("CTP", all_points=True)
        assert "CTP" in session.execute_command("stats")
