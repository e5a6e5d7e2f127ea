"""Unit tests of the heartbeat channel (``repro.obs.heartbeat``)."""

import io
import json
import os
import time

import pytest

from repro.obs.heartbeat import (
    NULL_HEARTBEAT,
    Heartbeat,
    HeartbeatMonitor,
    LiveStatus,
    NullHeartbeat,
    format_progress,
    get_heartbeat,
    heartbeat_path,
    install_heartbeat,
    uninstall_heartbeat,
)


@pytest.fixture(autouse=True)
def _clean_heartbeat_state():
    """Every test starts and ends with heartbeats disabled."""
    uninstall_heartbeat()
    yield
    uninstall_heartbeat()


class TestDisabledHeartbeat:
    def test_default_is_null_heartbeat(self):
        assert get_heartbeat() is NULL_HEARTBEAT
        assert get_heartbeat().enabled is False

    def test_disabled_operations_record_nothing(self):
        """The overhead guard: a disabled heartbeat allocates nothing."""
        heartbeat = get_heartbeat()
        heartbeat.update(frame=9, lemmas=120)
        heartbeat.reset(case="token_ring")
        assert heartbeat.snapshot() == {}
        heartbeat.close()

    def test_null_heartbeat_has_no_instance_dict(self):
        """__slots__ keeps the null object allocation-free per call."""
        assert not hasattr(NullHeartbeat(), "__dict__")

    def test_install_uninstall_round_trip(self):
        heartbeat = Heartbeat(role="test")
        install_heartbeat(heartbeat)
        assert get_heartbeat() is heartbeat
        assert uninstall_heartbeat() is heartbeat
        assert get_heartbeat() is NULL_HEARTBEAT


class TestHeartbeatRecord:
    def test_update_merges_and_reset_replaces(self):
        heartbeat = Heartbeat(role="engine")
        heartbeat.update(engine="ic3-pl", frame=2)
        heartbeat.update(frame=3, lemmas=40)
        record = heartbeat.snapshot()
        assert record["progress"] == {"engine": "ic3-pl", "frame": 3, "lemmas": 40}
        heartbeat.reset(case="next")
        assert heartbeat.snapshot()["progress"] == {"case": "next"}

    def test_snapshot_carries_identity_and_clock(self):
        record = Heartbeat(role="harness").snapshot()
        assert record["role"] == "harness"
        assert record["pid"] == os.getpid()
        assert record["seq"] == 0
        assert record["time_mono"] <= time.monotonic()
        # /proc sampling works on the CI hosts (Linux).
        assert record.get("rss_kb", 0) > 0

    def test_publish_writes_atomic_json_and_advances_seq(self, tmp_path):
        path = str(tmp_path / "hb-test-1.json")
        heartbeat = Heartbeat(role="test")
        heartbeat.path = path  # no publisher thread: publish manually
        heartbeat.update(frame=5)
        heartbeat.publish()
        heartbeat.publish()
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["progress"] == {"frame": 5}
        assert record["seq"] == 1  # second write saw the first's bump
        # mkstemp debris must not linger after the atomic rename.
        assert os.listdir(str(tmp_path)) == ["hb-test-1.json"]

    def test_publisher_thread_beats_without_updates(self, tmp_path):
        """Seq advancing with no field changes is the liveness signal."""
        path = heartbeat_path(str(tmp_path), "test")
        heartbeat = Heartbeat(role="test", path=path, interval=0.02)
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with open(path, "r", encoding="utf-8") as handle:
                    if json.load(handle)["seq"] >= 3:
                        break
                time.sleep(0.02)
            else:
                pytest.fail("publisher thread never advanced the sequence")
        finally:
            heartbeat.close()


class TestMonitor:
    def test_missing_directory_reads_empty(self, tmp_path):
        assert HeartbeatMonitor(str(tmp_path / "nope")).read_all() == []

    def test_reads_records_and_skips_debris(self, tmp_path):
        heartbeat = Heartbeat(role="a")
        heartbeat.path = heartbeat_path(str(tmp_path), "a")
        heartbeat.publish()
        # Debris a reader may race into: torn JSON and foreign files.
        (tmp_path / "hb-broken-2.json").write_text("{not json")
        (tmp_path / "unrelated.txt").write_text("x")
        records = HeartbeatMonitor(str(tmp_path)).read_all()
        assert [record["role"] for record in records] == ["a"]

    def test_age(self, tmp_path):
        monitor = HeartbeatMonitor(str(tmp_path))
        assert monitor.age({"time_mono": time.monotonic()}) < 1.0
        old = {"time_mono": time.monotonic() - 10.0}
        assert monitor.age(old) == pytest.approx(10.0, abs=1.0)
        assert monitor.age({}) == float("inf")


class TestLiveStatus:
    def test_suppressed_when_stream_is_not_a_tty(self):
        stream = io.StringIO()  # isatty() is False
        status = LiveStatus(lambda: "line", stream=stream, interval=0.01)
        assert status.enabled is False
        with status:
            time.sleep(0.05)
        assert stream.getvalue() == ""  # output stays parseable

    def test_paints_carriage_return_lines_on_a_tty(self):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        stream = FakeTty()
        lines = iter(["frame=1", "frame=2"])
        status = LiveStatus(
            lambda: next(lines, None), stream=stream, interval=0.01
        )
        assert status.enabled is True
        with status:
            deadline = time.monotonic() + 5.0
            while "frame=2" not in stream.getvalue():
                if time.monotonic() > deadline:
                    pytest.fail("status line never painted")
                time.sleep(0.01)
        text = stream.getvalue()
        assert "\rframe=1" in text and "\rframe=2" in text
        assert text.endswith("\r")  # erased on exit


class TestFormatProgress:
    def test_compact_key_value_line(self):
        record = {
            "progress": {
                "engine": "ic3-pl",
                "case": "token_ring_3",
                "frame": 12,
                "lemmas": 340,
                "members": {"bmc": "running", "ic3": "running"},
            },
            "rss_kb": 4096,
        }
        line = format_progress(record)
        assert line == (
            "ic3-pl case=token_ring_3 frame=12 lemmas=340 "
            "members[bmc:running,ic3:running] rss=4M"
        )

    def test_empty_record_is_idle(self):
        assert format_progress({}) == "idle"
