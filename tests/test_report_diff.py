"""tools/report_diff.py, the comparison that says whether two `sylow2 verify
--json` reports agree apart from their timings, run through its main on
reports of the cheap order-ratios claim."""

import importlib.util
import json
from pathlib import Path

import pytest

from sylow2 import __version__
from sylow2 import claims as cl

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _report():
    return cl.run_claims(["order-ratios"], cl.ClaimContext(), version=__version__)


def _diff(tmp_path, old, new):
    paths = []
    for name, report in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(report if isinstance(report, str) else report.to_json())
        paths.append(str(path))
    return report_diff.main(paths)


def test_reports_that_differ_only_in_timings_agree(tmp_path, capsys):
    old = _report()
    (record,) = old.claims
    new = old._replace(
        timestamp="2000-01-01T00:00:00+00:00",
        claims=[record._replace(runtime_ms=record.runtime_ms + 1000)],
    )
    assert new.to_json() != old.to_json()
    assert _diff(tmp_path, old, new) == 0
    assert capsys.readouterr().out == ""


def test_a_changed_witness_is_printed_by_its_path(tmp_path, capsys):
    old = _report()
    (record,) = old.claims
    checks = record.witnesses["checks"]
    witnesses = {**record.witnesses, "checks": checks + 1}
    new = old._replace(claims=[record._replace(witnesses=witnesses)])
    assert _diff(tmp_path, old, new) == 1
    assert capsys.readouterr().out == f"$.claims[0].witnesses.checks: {checks} != {checks + 1}\n"


def test_a_json_list_is_not_a_report(tmp_path, capsys):
    assert _diff(tmp_path, _report(), json.dumps([1, 2])) == 2
    assert "a report is a JSON object, not list" in capsys.readouterr().err


def _with_one_bad_claim():  # a whole report whose one claim has no field the reader needs
    return json.dumps({**_report().to_json_dict(), "claims": [{"a": 1}]})


def _with_claims_as_a_string():
    return json.dumps({**_report().to_json_dict(), "claims": ""})


@pytest.mark.parametrize("new, error", [
    (lambda: json.dumps({"claims": [{"a": 1}]}), "unsupported report format None"),
    (_with_one_bad_claim, "report is missing the field 'status'"),
    (_with_claims_as_a_string, "report field 'claims' must be a list, not a string"),
])
def test_a_claims_list_that_the_report_reader_refuses_is_not_a_report(tmp_path, capsys, new, error):
    assert _diff(tmp_path, _report(), new()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'new.json'}: {error}\n"


def test_a_summary_that_is_not_the_claims_counts_is_not_a_report(tmp_path, capsys):
    new = json.dumps({**_report().to_json_dict(), "claims": [], "summary": {"pass": 99}})
    assert _diff(tmp_path, _report(), new) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {tmp_path / 'new.json'}: report summary {{'pass': 99}} does not match "
        "its claims' counts {'pass': 0, 'fail': 0, 'skipped-cap': 0}\n"
    )


def _with_claims(*changes):
    """The order-ratios report as JSON, its one claim record replaced by one copy per change
    (each a dict of fields to set), with a summary that matches the copies."""
    data = _report().to_json_dict()
    (record,) = data["claims"]
    claims = [{**record, **change} for change in changes]
    return json.dumps({**data, "claims": claims, "summary": {"pass": len(claims), "fail": 0, "skipped-cap": 0}})


def _with_failures():  # the passing record, its witnesses given a failure
    (record,) = _report().claims
    return _with_claims({"witnesses": {**record.witnesses, "failures": {"k": 1}}})


def _with_witness(status, name, value):  # the passing record, given a status and one more witness
    def new():
        (record,) = _report().claims
        return _with_claims({"status": status, "witnesses": {**record.witnesses, name: value}})
    return new


@pytest.mark.parametrize("new, error", [
    (lambda: _with_claims({"runtime_ms": -1}), "claim field 'runtime_ms' must be non-negative, not -1"),
    (lambda: _with_claims({}, {}), "report field 'claims' holds claim_id 'order-ratios' twice"),
    (lambda: _with_claims({}, {"claim_id": "legendre"}),
     "report field 'claims' is not in claim_id order: 'legendre' follows 'order-ratios'"),
    (lambda: _with_claims({"seed": 0}), "claim has the unknown field 'seed'"),
    (lambda: json.dumps({**_report().to_json_dict(), "notes": ""}), "report has the unknown field 'notes'"),
    (_with_failures, "claim 'order-ratios' has status 'pass', but its witnesses make it 'fail'"),
    (lambda: _with_claims({"status": "fail"}), "claim 'order-ratios' has status 'fail', but its witnesses make it 'pass'"),
    (lambda: _with_claims({"runtime_ms": float("nan")}), "report number NaN is not finite"),
    (lambda: _with_claims({"runtime_ms": float("inf")}), "report number Infinity is not finite"),
    (lambda: _with_claims({"runtime_ms": 1}).replace('"runtime_ms": 1', '"runtime_ms": 1e400'),
     "report number 1e400 is not finite"),
    (_with_witness("fail", "failures", {}), "claim witness 'failures' must be a non-empty object"),
    (_with_witness("fail", "failures", 5), "claim witness 'failures' must be a non-empty object"),
    (_with_witness("skipped-cap", "skipped", []), "claim witness 'skipped' must be a non-empty list"),
    (_with_witness("skipped-cap", "skipped", "x"), "claim witness 'skipped' must be a non-empty list"),
], ids=["negative-runtime", "duplicate-claim-id", "out-of-order", "unknown-claim-field", "unknown-report-field",
        "pass-with-failures", "fail-without-failures", "nan", "infinity", "overflowing-number",
        "empty-failures", "failures-not-an-object", "empty-skipped", "skipped-not-a-list"])
def test_a_claims_list_the_writer_never_writes_is_not_a_report(tmp_path, capsys, new, error):
    assert _diff(tmp_path, _report(), new()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'new.json'}: {error}\n"
