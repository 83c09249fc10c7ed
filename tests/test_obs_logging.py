"""Tests for repro.obs.logging: JSON/text formatters, context binding,
idempotent handler installation, and the shared CLI flags."""

import argparse
import asyncio
import io
import json
import logging

import pytest

from repro.obs.logging import (
    JsonFormatter,
    TextFormatter,
    add_logging_arguments,
    bind_campaign,
    bound_context,
    configure_logging,
    context_fields,
    get_logger,
)


def make_record(message="batch accepted", level=logging.INFO, extra=None):
    record = logging.LogRecord(
        name="repro.test",
        level=level,
        pathname=__file__,
        lineno=1,
        msg=message,
        args=(),
        exc_info=None,
    )
    for key, value in (extra or {}).items():
        setattr(record, key, value)
    return record


class TestJsonFormatter:
    def test_one_json_object_per_line_with_stable_keys(self):
        line = JsonFormatter().format(
            make_record(extra={"reports": 2000, "shard": 3})
        )
        assert "\n" not in line
        entry = json.loads(line)
        assert list(entry)[:4] == ["ts", "level", "logger", "event"]
        assert entry["level"] == "info"
        assert entry["logger"] == "repro.test"
        assert entry["event"] == "batch accepted"
        assert entry["reports"] == 2000
        assert entry["shard"] == 3

    def test_context_ids_are_included(self):
        with bound_context(request_id="r-17", campaign="3f9a"):
            entry = json.loads(JsonFormatter().format(make_record()))
        assert entry["request_id"] == "r-17"
        assert entry["campaign"] == "3f9a"

    def test_unserializable_extras_fall_back_to_repr(self):
        entry = json.loads(
            JsonFormatter().format(make_record(extra={"obj": object()}))
        )
        assert entry["obj"].startswith("<object object")

    def test_exception_info_rendered(self):
        try:
            raise ValueError("boom")
        except ValueError:
            import sys

            record = make_record(level=logging.ERROR)
            record.exc_info = sys.exc_info()
        entry = json.loads(JsonFormatter().format(record))
        assert entry["exc_type"] == "ValueError"
        assert "boom" in entry["exc"]


class TestTextFormatter:
    def test_human_line_with_key_value_tail(self):
        line = TextFormatter().format(make_record(extra={"reports": 5}))
        assert "info" in line
        assert "repro.test: batch accepted" in line
        assert line.endswith("reports=5")

    def test_values_with_spaces_are_quoted(self):
        line = TextFormatter().format(
            make_record(extra={"note": "two words"})
        )
        assert 'note="two words"' in line


class TestContextPropagation:
    def test_bound_context_restores_previous_binding(self):
        assert context_fields() == {}
        with bound_context(request_id="outer"):
            with bound_context(request_id="inner", campaign="c1"):
                assert context_fields() == {
                    "request_id": "inner",
                    "campaign": "c1",
                }
            assert context_fields() == {"request_id": "outer"}
        assert context_fields() == {}

    def test_bind_campaign_sticks_within_request_scope(self):
        before = context_fields()
        with bound_context(request_id="r-1"):
            bind_campaign("abc")
            assert context_fields()["campaign"] == "abc"
        assert context_fields() == before

    def test_context_survives_await_boundaries(self):
        async def handler(request_id):
            with bound_context(request_id=request_id):
                await asyncio.sleep(0)
                return context_fields()["request_id"]

        async def main():
            return await asyncio.gather(handler("r-a"), handler("r-b"))

        assert asyncio.run(main()) == ["r-a", "r-b"]


class TestConfigureLogging:
    def test_installs_handler_and_emits_json(self):
        stream = io.StringIO()
        logger = logging.getLogger("repro.test.cfg1")
        logger.propagate = False
        configure_logging("json", "info", stream=stream, logger=logger)
        logger.info("hello", extra={"k": "v"})
        entry = json.loads(stream.getvalue().strip())
        assert entry["event"] == "hello"
        assert entry["k"] == "v"

    def test_reconfiguring_does_not_double_log(self):
        stream = io.StringIO()
        logger = logging.getLogger("repro.test.cfg2")
        logger.propagate = False
        configure_logging("text", "info", stream=stream, logger=logger)
        configure_logging("json", "info", stream=stream, logger=logger)
        logger.info("once")
        assert len(stream.getvalue().strip().splitlines()) == 1

    def test_level_filtering(self):
        stream = io.StringIO()
        logger = logging.getLogger("repro.test.cfg3")
        logger.propagate = False
        configure_logging("text", "warning", stream=stream, logger=logger)
        logger.info("dropped")
        logger.warning("kept")
        assert "dropped" not in stream.getvalue()
        assert "kept" in stream.getvalue()

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            configure_logging("xml")
        with pytest.raises(ValueError):
            configure_logging("json", level="loud")

    def test_get_logger_is_the_stdlib_factory(self):
        assert get_logger("repro.x") is logging.getLogger("repro.x")


class TestCliFlags:
    def test_defaults_and_choices(self):
        parser = argparse.ArgumentParser()
        add_logging_arguments(parser)
        args = parser.parse_args([])
        assert args.log_format == "text"
        assert args.log_level == "info"
        args = parser.parse_args(["--log-format", "json", "--log-level", "debug"])
        assert args.log_format == "json"
        assert args.log_level == "debug"

    def test_rejects_unknown_format(self):
        parser = argparse.ArgumentParser()
        add_logging_arguments(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--log-format", "yaml"])
