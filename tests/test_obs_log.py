"""Structured JSONL logging (repro.obs.log) and its producers.

ISSUE requirements covered here:

* ``log_event`` records carry level/event/logger/ts plus structured
  fields, are correlated with the ambient recorder's span and simulated
  time when one is installed, and mirror a human-readable line to
  stdlib logging (so ``--log-level`` keeps working);
* ``validate_log_file`` enforces the record contract line by line;
* the converted runner paths actually emit: cache corruption and
  torn-tail stream recovery produce structured events.
"""

import json
import logging

import pytest

from repro.obs.log import (
    LOG_LEVELS,
    LOG_RECORD_TYPE,
    add_log_sink,
    get_logger,
    jsonl_logging,
    log_event,
    validate_log_file,
)
from repro.obs.recorder import recording


def read_records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestLogEvent:
    def test_record_shape(self, tmp_path):
        target = tmp_path / "events.jsonl"
        with jsonl_logging(target):
            record = log_event(
                "warning", "cache.corrupt_entry",
                logger="repro.test", path="/x.json", reason="torn",
            )
        assert record["record"] == LOG_RECORD_TYPE
        assert record["level"] == "warning"
        assert record["event"] == "cache.corrupt_entry"
        assert record["logger"] == "repro.test"
        assert isinstance(record["ts"], float)
        assert record["path"] == "/x.json"
        (stored,) = read_records(target)
        assert stored == json.loads(json.dumps(record))

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            log_event("loud", "some.event")

    def test_all_levels_accepted(self):
        for level in LOG_LEVELS:
            assert log_event(level, "test.event")["level"] == level

    def test_span_and_sim_time_correlation(self, tmp_path):
        with recording() as recorder:
            with recorder.span("campaign.run") as span:
                recorder.set_sim_time(42.5)
                record = log_event("info", "test.correlated")
        assert record["span"] == span.span_id
        assert record["span_name"] == "campaign.run"
        assert record["sim_time"] == 42.5

    def test_no_recorder_no_correlation(self):
        record = log_event("info", "test.bare")
        assert "span" not in record
        assert "sim_time" not in record

    def test_stdlib_mirror(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.mirror"):
            log_event(
                "warning", "sink.recovered_torn_tail",
                logger="repro.mirror", truncated_bytes=17,
            )
        (entry,) = caplog.records
        assert "sink.recovered_torn_tail" in entry.message
        assert "truncated_bytes=17" in entry.message

    def test_structured_logger_facade(self, tmp_path):
        target = tmp_path / "events.jsonl"
        log = get_logger("repro.facade")
        with jsonl_logging(target):
            log.info("a.b", x=1)
            log.error("c.d")
        first, second = read_records(target)
        assert (first["level"], first["event"]) == ("info", "a.b")
        assert (second["level"], second["logger"]) == ("error", "repro.facade")

    def test_nonfinite_fields_survive_json(self, tmp_path):
        target = tmp_path / "events.jsonl"
        with jsonl_logging(target):
            log_event("info", "test.inf", value=float("inf"))
        (record,) = read_records(target)
        assert record["value"] == "inf"

    def test_closed_sink_stops_receiving(self, tmp_path):
        target = tmp_path / "events.jsonl"
        sink = add_log_sink(target)
        log_event("info", "test.one")
        sink.close()
        log_event("info", "test.two")
        assert len(read_records(target)) == 1


class TestValidator:
    def write_and_validate(self, tmp_path, lines):
        target = tmp_path / "events.jsonl"
        target.write_text("\n".join(lines) + "\n")
        return validate_log_file(target)

    def good_line(self, **overrides):
        record = {
            "record": "log", "ts": 1.0, "level": "info",
            "logger": "repro", "event": "a.b",
        }
        record.update(overrides)
        return json.dumps(record)

    def test_counts_valid_records(self, tmp_path):
        assert self.write_and_validate(
            tmp_path, [self.good_line(), self.good_line(level="error")]
        ) == 2

    def test_rejects_bad_json(self, tmp_path):
        with pytest.raises(ValueError, match="not valid JSON"):
            self.write_and_validate(tmp_path, [self.good_line(), "{torn"])

    def test_rejects_wrong_record_type(self, tmp_path):
        with pytest.raises(ValueError, match="record type"):
            self.write_and_validate(tmp_path, [self.good_line(record="metric")])

    def test_rejects_unknown_level(self, tmp_path):
        with pytest.raises(ValueError, match="unknown level"):
            self.write_and_validate(tmp_path, [self.good_line(level="loud")])

    def test_rejects_missing_event(self, tmp_path):
        with pytest.raises(ValueError, match="event"):
            self.write_and_validate(tmp_path, [self.good_line(event="")])

    def test_rejects_missing_ts(self, tmp_path):
        with pytest.raises(ValueError, match="ts"):
            self.write_and_validate(tmp_path, [self.good_line(ts="soon")])

    def test_rejects_empty_file(self, tmp_path):
        target = tmp_path / "events.jsonl"
        target.write_text("")
        with pytest.raises(ValueError, match="no log records"):
            validate_log_file(target)

    def test_real_emitter_output_validates(self, tmp_path):
        target = tmp_path / "events.jsonl"
        with jsonl_logging(target):
            log_event("warning", "campaign.cell.quarantined", seed=3)
            log_event("info", "test.other")
        assert validate_log_file(target) == 2


class TestRunnerPathsEmit:
    """The converted ad-hoc warnings actually produce structured events."""

    def test_cache_corruption_emits_event(self, tmp_path):
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        entry = cache.directory / ("0" * 64 + ".json")
        entry.write_text("{garbage")
        target = tmp_path / "events.jsonl"
        with jsonl_logging(target):
            assert cache.get("0" * 64) is None
        (record,) = read_records(target)
        assert record["event"] == "cache.corrupt_entry"
        assert record["logger"] == "repro.runner.cache"
        assert record["action"] == "treated_as_miss"
        assert validate_log_file(target) == 1

    def test_torn_tail_recovery_emits_event(self, tmp_path):
        from repro.runner.sink import ResultSink
        from repro.runner.cells import CellResult

        grid = [("bounded", "ring-4", seed) for seed in range(2)]
        result = CellResult(
            scenario="bounded", topology="ring-4", seed=0, precision=2.0,
            rho_bar=2.0, realized=1.0, sound=True,
            seconds=0.01,
        )
        with ResultSink(tmp_path) as sink:
            sink.begin(grid, range(2))
            sink.append_result(0, result)
            stream = sink.data_path
        with open(stream, "ab") as handle:
            handle.write(b'{"type": "campaign.cell", "ind')  # torn append
        target = tmp_path / "events.jsonl"
        with jsonl_logging(target):
            fresh = ResultSink(tmp_path)
            recovery = fresh.begin(grid, range(2))
            fresh.close()
        assert list(recovery.results) == [0]
        events = [r["event"] for r in read_records(target)]
        assert "sink.recovered_torn_tail" in events
        record = next(
            r for r in read_records(target)
            if r["event"] == "sink.recovered_torn_tail"
        )
        assert record["truncated_bytes"] > 0
        assert record["logger"] == "repro.runner.sink"
