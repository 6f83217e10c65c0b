"""Tests for the trace-event schema and JSONL validator."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.schema import (
    CORE_COMPONENTS,
    EVENT_SCHEMA,
    component_of,
    main,
    validate_file,
    validate_lines,
    validate_record,
)

GOOD = {"t": 0.5, "type": "link.drop", "link": "a->b", "kind": "data",
        "size": 1500, "reason": "queue"}


class TestValidateRecord:
    def test_good_record(self):
        validate_record(GOOD)  # does not raise

    def test_extra_fields_allowed(self):
        validate_record({**GOOD, "annotation": "anything"})

    def test_missing_field(self):
        record = {key: value for key, value in GOOD.items()
                  if key != "reason"}
        with pytest.raises(ObservabilityError, match="reason"):
            validate_record(record)

    def test_wrong_type(self):
        with pytest.raises(ObservabilityError, match="size"):
            validate_record({**GOOD, "size": "big"})

    def test_bool_rejected_in_number_field(self):
        with pytest.raises(ObservabilityError, match="bool"):
            validate_record({**GOOD, "size": True})

    def test_unknown_event_type(self):
        with pytest.raises(ObservabilityError, match="unknown"):
            validate_record({"t": 0.0, "type": "nope.nope"})

    def test_missing_timestamp(self):
        record = {key: value for key, value in GOOD.items() if key != "t"}
        with pytest.raises(ObservabilityError, match="'t'"):
            validate_record(record)

    def test_not_an_object(self):
        with pytest.raises(ObservabilityError):
            validate_record([1, 2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(ObservabilityError, match="'t' must be a finite"):
            validate_record({**GOOD, "t": bad})
        with pytest.raises(ObservabilityError, match="'size' must be finite"):
            validate_record({**GOOD, "size": bad})


class TestSchemaShape:
    def test_every_type_has_component_prefix(self):
        for etype in EVENT_SCHEMA:
            assert "." in etype
            assert component_of(etype) == etype.split(".")[0]

    def test_core_components_covered(self):
        prefixes = {component_of(etype) for etype in EVENT_SCHEMA}
        for component in CORE_COMPONENTS:
            assert component in prefixes


class TestValidateLines:
    def test_counts_by_component(self):
        lines = [json.dumps(GOOD),
                 "",  # blank lines are skipped
                 json.dumps({"t": 1.0, "type": "quack.decode",
                             "status": "ok", "missing": 0})]
        assert validate_lines(lines) == {"link": 1, "quack": 1}

    def test_bad_json_names_the_line(self):
        with pytest.raises(ObservabilityError, match="line 2"):
            validate_lines([json.dumps(GOOD), "{not json"])

    def test_bad_record_names_the_line(self):
        with pytest.raises(ObservabilityError, match="line 1"):
            validate_lines(['{"type": "nope.nope", "t": 0}'])

    def test_time_going_back_names_the_line(self):
        lines = [json.dumps({**GOOD, "t": t}) for t in (2.0, 2.0, 1.5)]
        with pytest.raises(ObservabilityError,
                           match="line 3: 't' went back from 2.0 to 1.5"):
            validate_lines(lines)


class TestCli:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(GOOD) + "\n")
        assert main([str(path)]) == 0
        assert "ok (1 events" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "nope.nope", "t": 0}\n')
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_out_of_order_file_fails(self, tmp_path, capsys):
        path = tmp_path / "unsorted.jsonl"
        path.write_text(json.dumps({**GOOD, "t": 1.0}) + "\n"
                        + json.dumps({**GOOD, "t": 0.5}) + "\n")
        assert main([str(path)]) == 1
        assert "INVALID: line 2: 't' went back" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_non_finite_timestamp_fails_the_file(self, tmp_path, capsys):
        # json.loads reads the NaN / Infinity tokens the exporter never
        # writes; the validator must not print "ok" over them.
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps(GOOD) + "\n"
                        + json.dumps({**GOOD, "t": float("nan")}) + "\n"
                        + json.dumps({**GOOD, "t": float("inf")}) + "\n")
        assert "NaN" in path.read_text()
        assert main([str(path)]) == 1
        assert "line 2: link.drop: 't' must be a finite number" \
            in capsys.readouterr().err

    def test_validate_file_function(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(GOOD) + "\n")
        assert validate_file(str(path)) == {"link": 1}
