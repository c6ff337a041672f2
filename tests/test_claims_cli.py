import contextlib
import json
import os
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sylow2 import __version__, cli, sylow_builders
from sylow2 import claims as cl


@lru_cache(maxsize=1)
def _full_report():
    ctx = cl.ClaimContext()
    return cl.run_claims(cl.claim_ids(), ctx, version=__version__)


def test_registry_covers_every_claim_once():
    report = _full_report()
    assert [c.claim_id for c in report.claims] == cl.claim_ids()
    assert len({c.claim_id for c in report.claims}) == 14


def test_all_claims_pass_at_default_parameters():
    report = _full_report()
    bad = {c.claim_id: c.witnesses for c in report.claims if c.status != "pass"}
    assert not bad
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 0


def test_report_round_trip_is_byte_identical(monkeypatch):
    reports = [_full_report()] + [
        cl.run_claims(cl.claim_ids(), cl.ClaimContext(**ctx), version=__version__)
        for ctx in ({"cap": 1}, {"cap": 10}, {"max_k": 2})
    ]
    # a planted defect: W_k built from the B_k generators fails w-structure
    monkeypatch.setattr(sylow_builders, "w_subgroup_generators", sylow_builders.s_alpha)
    reports.append(cl.run_claims(cl.claim_ids(), cl.ClaimContext(max_k=3), version=__version__))
    assert {status for report in reports for status, count in report.summary().items() if count} == set(cl.STATUSES)
    for report in reports:
        text = report.to_json()
        assert cl.VerificationReport.from_json(text).to_json() == text


def test_runs_are_deterministic_modulo_timestamp():
    first = cl.run_claims(cl.claim_ids(), cl.ClaimContext(), version=__version__)
    second = cl.run_claims(cl.claim_ids(), cl.ClaimContext(), version=__version__)

    def essence(report):
        return [
            (c.claim_id, c.status, json.dumps(c.witnesses, sort_keys=True))
            for c in report.claims
        ]

    assert essence(first) == essence(second)


def test_small_cap_yields_skipped_not_failed():
    ctx = cl.ClaimContext(cap=32)
    report = cl.run_claims(["order-gk"], ctx, version=__version__)
    record = report.claims[0]
    assert record.status == "skipped-cap"
    assert record.witnesses["skipped"]
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1


def test_tree_groups_are_enumerated_once_per_k_even_past_the_cap(monkeypatch):
    # every registry build: generate by generator set name (minimality's
    # unnamed (k-1)-subsets stay direct) and boxtimes_group by n
    builds = Counter()
    generate, boxtimes_group = cl.group_engine.generate, cl.sylow_builders.boxtimes_group

    def counting_generate(gens, *args, **kwargs):
        if getattr(gens, "name", ""):
            builds[gens.name] += 1
        return generate(gens, *args, **kwargs)

    def counting_boxtimes_group(n, *args, **kwargs):
        builds[f"boxtimes_group({n})"] += 1
        return boxtimes_group(n, *args, **kwargs)

    monkeypatch.setattr(cl.group_engine, "generate", counting_generate)
    monkeypatch.setattr(cl.sylow_builders, "boxtimes_group", counting_boxtimes_group)

    def run(cap):
        builds.clear()
        return cl.run_claims(cl.claim_ids(), cl.ClaimContext(max_k=4, cap=cap), version=__version__)

    def skipped_with(report, entry):
        return {c.claim_id for c in report.claims if entry in c.witnesses.get("skipped", [])}

    every_group = [f"{name}(k={k})" for name in ("S_beta", "S_alpha", "W") for k in (2, 3, 4)]
    every_group += ["Syl2_S(n=4)", *(f"boxtimes_group({n})" for n in cl.BOXTIMES_DEGREES)]
    run(cl.DEFAULT_CAP)
    assert builds == dict.fromkeys(every_group, 1)
    # G_4 (order 16384) passes a cap of 1000, so semidirect never asks for B_4;
    # every claim that reaches k = 4 gets the one cap error its enumeration raised
    report = run(1000)
    assert builds == {name: 1 for name in every_group if name != "S_alpha(k=4)"}
    skipped_at_k4 = skipped_with(report, {"k": 4, "partial_count": 1000})
    assert skipped_at_k4 == {"evenness", "frattini-level", "minimality", "order-gk", "semidirect"}
    # at a cap of 10, Syl_2(S_6) (order 16) passes it before any enumeration:
    # both block claims skip n = 6 on the one boxtimes_group(6) call
    report = run(10)
    assert builds["boxtimes_group(6)"] == 1 and set(builds.values()) == {1}
    assert skipped_with(report, {"n": 6, "partial_count": 0}) == {"boxtimes", "parity-extension"}


def test_verify_ignores_old_cache_and_writes_no_files(tmp_path, monkeypatch, capsys):
    # a trivial group stored where earlier versions kept their group cache,
    # and which they read back as G_3 (order 1 instead of 64)
    for name in [n for n in os.environ if n.startswith("SYLOW2_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / ".cache"))
    old_cache = tmp_path / ".cache" / "sylow2"
    old_cache.mkdir(parents=True)
    (old_cache / "G_3.json").write_text(json.dumps({
        "format": "sylow2-group-v1", "degree": 8, "label": "G_3", "order": 1,
        "elements": [bytes(range(8)).hex()],
    }))
    before = set(tmp_path.rglob("*"))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--claim", "order-gk", "--json", str(out)]) == 0
    capsys.readouterr()
    assert cl.VerificationReport.from_json(out.read_text()).claims[0].status == "pass"
    assert set(tmp_path.rglob("*")) - before == {out}


def test_resolve_claim_id_case_insensitive():
    assert cl.resolve_claim_id("order-Gk") == "order-gk"
    with pytest.raises(ValueError) as info:
        cl.resolve_claim_id("bogus")
    assert str(info.value) == "unknown claim 'bogus'; known claims: " + ", ".join(cl.claim_ids())


# --- command line ------------------------------------------------------------


def test_cli_order(capsys):
    assert cli.main(["order", "--n", "8", "--kind", "A"]) == 0
    assert "2^6 = 64" in capsys.readouterr().out
    assert cli.main(["order", "--n", "1", "--kind", "S"]) == 0
    assert "2^0 = 1" in capsys.readouterr().out
    assert cli.main(["order", "--n", "24", "--kind", "S"]) == 0
    assert "2^22" in capsys.readouterr().out


def test_cli_order_json(tmp_path, capsys):
    out = tmp_path / "order.json"
    assert cli.main(["order", "--n", "12", "--kind", "A", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text()) == {"n": 12, "kind": "A", "exponent": 9, "order": 512}


def test_cli_order_rejects_bad_n(capsys):
    assert cli.main(["order", "--n", "0", "--kind", "S"]) == 2
    assert "error" in capsys.readouterr().err


@contextlib.contextmanager
def _digit_limit(digits):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_cli_order_refuses_an_order_past_the_digit_limit(tmp_path, capsys):
    # Syl_2(A_14295) has order 2^14283, of 4300 digits; Syl_2(A_14296) has 2^14286, of 4301
    out = tmp_path / "order.json"
    with _digit_limit(4300):
        assert cli.main(["order", "--n", "14295", "--kind", "A", "--json", str(out)]) == 0
        head, order = capsys.readouterr().out.split(" = ")
        assert head == "Syl_2(A_14295): order 2^14283" and int(order) == 1 << 14283
        assert len(order.strip()) == 4300
        for n, exponent in (("14296", 14286), ("10000000000", 9999999988)):
            assert cli.main(["order", "--n", n, "--kind", "A", "--json", str(out)]) == 2
            captured = capsys.readouterr()
            [line] = captured.err.splitlines()
            assert captured.out == "" and line.startswith("error: ")
            assert f"n={n}" in line and f"2^{exponent}" in line
            assert "4300" in line and "sys.get_int_max_str_digits()" in line
        assert json.loads(out.read_text())["exponent"] == 14283
        assert cli.main(["decompose", "--n", "10000000000"]) == 0
        assert "Syl_2(A_10000000000): 2^9999999988" in capsys.readouterr().out


def test_cli_order_digit_limit_is_exact(capsys):
    # under a 642-digit limit, Syl_2(S_2137) has order 2^2132, of 642 digits,
    # and Syl_2(S_2138) has 2^2133 = 2^bit_length(10^642), of 643
    with _digit_limit(642):
        assert cli.main(["order", "--n", "2137", "--kind", "S"]) == 0
        assert len(capsys.readouterr().out.split(" = ")[1].strip()) == 642
        assert cli.main(["order", "--n", "2138", "--kind", "S"]) == 2
        assert "2^2133, past the 642-digit limit" in capsys.readouterr().err


def test_cli_decompose(tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert cli.main(["decompose", "--n", "22", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "16 + 4 + 2" in text
    payload = json.loads(out.read_text())
    assert payload["powers"] == [16, 4, 2]
    assert payload["block_exponents_S"] == [15, 3, 1]
    assert payload["exponent_S"] == 19
    assert cli.main(["decompose", "--n", "1"]) == 0
    assert "2^0" in capsys.readouterr().out
    assert cli.main(["decompose", "--n", "12"]) == 0
    out12 = capsys.readouterr().out
    assert "Syl_2(A_12): 2^9" in out12


def test_cli_gens(capsys):
    assert cli.main(["gens", "--k", "3", "--family", "s_beta"]) == 0
    text = capsys.readouterr().out
    assert "a0" in text and "tau" in text
    assert "(1 2)(7 8)" in text
    assert "k=3;L0=0;L1=00;L2=1001" in text

    assert cli.main(["gens", "--k", "2", "--family", "s_beta"]) == 0
    text = capsys.readouterr().out
    assert text.count("\n") == 3  # header + two generators

    assert cli.main(["gens", "--n", "6", "--family", "syl2_A"]) == 0
    text = capsys.readouterr().out
    assert "*h" in text

    assert cli.main(["gens", "--family", "s_beta"]) == 2
    capsys.readouterr()
    assert cli.main(["gens", "--n", "6", "--family", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, header, line", [
    (["gens", "--family", "syl2_S", "--n", "300"],
     "Syl2_S(n=300): 18 generators on 300 points",
     "  a0[1-256]        " + "".join(f"({i} {i + 128})" for i in range(1, 129))),
    (["gens", "--family", "syl2_A", "--n", "300"],
     "Syl2_A(n=300): 18 generators on 300 points",
     "  a7[1-256]*h      (1 2)(299 300)"),
    (["gens", "--family", "s_beta", "--k", "9"],
     "S_beta(k=9): 9 generators on 512 points",
     "  a0               " + "".join(f"({i} {i + 256})" for i in range(1, 257))
     + "   [k=9;L0=1;" + ";".join(f"L{l}=" + "0" * (1 << l) for l in range(1, 9)) + "]"),
], ids=["syl2_S-n300", "syl2_A-n300", "s_beta-k9"])
def test_cli_gens_past_256_points(argv, header, line, capsys):
    # more points than a byte key holds: the permutations keep tuples
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert line in lines
    assert len(lines) == 1 + int(header.split(": ")[1].split()[0])


def test_cli_gens_refuses_n_past_the_deepest_tree(capsys):
    # 2^17 points would need a tree of depth 17, one past tree_core.MAX_DEPTH
    for family in ("syl2_S", "syl2_A"):
        assert cli.main(["gens", "--family", family, "--n", "131072"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need 2 <= n < 131072, got 131072\n"
        assert captured.out == ""


def test_cli_gens_json(tmp_path, capsys):
    out = tmp_path / "gens.json"
    assert cli.main(["gens", "--k", "2", "--family", "s_alpha", "--json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["degree"] == 4
    assert payload["generators"][0]["label"] == "a0"
    assert payload["generators"][0]["portrait"].startswith("k=2;")


def test_cli_verify_single_claim(tmp_path, capsys):
    parameters = []
    # --k and --n spell --max-k and --max-n, and the last value given wins
    for limits in (
        ["--k", "3", "--n", "8"],
        ["--max-k", "3", "--max-n", "8"],
        ["--k", "2", "--max-k", "3", "--n", "8"],
    ):
        code = cli.main([
            "verify", "--claim", "order-Gk", *limits,
            "--json", str(tmp_path / "r.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "order-gk" in out
        report = cl.VerificationReport.from_json((tmp_path / "r.json").read_text())
        assert report.claims[0].status == "pass"
        parameters.append(report.parameters)
    assert parameters[0]["max_k"] == 3 and parameters[0]["max_n"] == 8
    assert parameters[0] == parameters[1] == parameters[2]


def test_cli_verify_defaults_are_the_claim_context_defaults(tmp_path, capsys):
    assert cli.main(["verify", "--claim", "order-ratios", "--json", str(tmp_path / "r.json")]) == 0
    report = cl.VerificationReport.from_json((tmp_path / "r.json").read_text())
    assert report.parameters == cl.ClaimContext().parameters()


def _report_data():
    return json.loads(_full_report().to_json())


def test_report_from_json_rejects_a_non_object():
    with pytest.raises(ValueError, match="^a report is a JSON object, not list$"):
        cl.VerificationReport.from_json("[]")


def test_report_from_json_rejects_a_missing_field():
    data = _report_data()
    del data["version"]
    with pytest.raises(ValueError, match="^report is missing the field 'version'$"):
        cl.VerificationReport.from_json(json.dumps(data))


def test_report_from_json_rejects_an_unknown_status():
    data = _report_data()
    data["claims"][0]["status"] = "weird"
    with pytest.raises(ValueError, match="^claim 'boxtimes' has unknown status 'weird'$"):
        cl.VerificationReport.from_json(json.dumps(data))


# (the report or its first claim, the field, a value of the wrong JSON type, the refusal)
_WRONGLY_TYPED = [
    ("report", "claims", "", "report field 'claims' must be a list, not a string"),
    ("report", "claims", {}, "report field 'claims' must be a list, not an object"),
    ("report", "claims", [1], "claim entry 0 must be an object, not an integer"),
    ("report", "claims", ["x"], "claim entry 0 must be an object, not a string"),
    ("report", "summary", [], "report field 'summary' must be an object, not a list"),
    ("report", "parameters", [1], "report field 'parameters' must be an object, not a list"),
    ("report", "parameters", "x", "report field 'parameters' must be an object, not a string"),
    ("report", "version", 1, "report field 'version' must be a string, not an integer"),
    ("report", "timestamp", None, "report field 'timestamp' must be a string, not null"),
    ("claim", "claim_id", [], "claim field 'claim_id' must be a string, not a list"),
    ("claim", "statement", 1, "claim field 'statement' must be a string, not an integer"),
    ("claim", "parameters", [], "claim field 'parameters' must be an object, not a list"),
    ("claim", "witnesses", 3, "claim field 'witnesses' must be an object, not an integer"),
    ("claim", "runtime_ms", "z", "claim field 'runtime_ms' must be an integer, not a string"),
    ("claim", "runtime_ms", True, "claim field 'runtime_ms' must be an integer, not a boolean"),
    ("claim", "runtime_ms", 1.0, "claim field 'runtime_ms' must be an integer, not a number"),
]


@pytest.mark.parametrize(
    "owner, name, value, message", _WRONGLY_TYPED,
    ids=[f"{owner}.{name}={value!r}" for owner, name, value, _ in _WRONGLY_TYPED],
)
def test_report_from_json_rejects_a_wrongly_typed_field(owner, name, value, message):
    data = _report_data()
    (data if owner == "report" else data["claims"][0])[name] = value
    with pytest.raises(ValueError) as info:
        cl.VerificationReport.from_json(json.dumps(data))
    assert str(info.value) == message


_COUNTS = "{'pass': 14, 'fail': 0, 'skipped-cap': 0}"


@pytest.mark.parametrize("summary, message", [
    ({"pass": 99}, f"report summary {{'pass': 99}} does not match its claims' counts {_COUNTS}"),
    ({"pass": 13, "fail": 1, "skipped-cap": 0},
     f"report summary {{'pass': 13, 'fail': 1, 'skipped-cap': 0}} does not match its claims' counts {_COUNTS}"),
    ({"pass": 14, "fail": 0, "skipped-cap": 0, "other": 0},
     f"report summary {{'pass': 14, 'fail': 0, 'skipped-cap': 0, 'other': 0}} does not match its claims' counts {_COUNTS}"),
    ({"pass": 14.0, "fail": 0, "skipped-cap": 0}, "summary field 'pass' must be an integer, not a number"),
    ({"pass": 14, "fail": False, "skipped-cap": 0}, "summary field 'fail' must be an integer, not a boolean"),
])
def test_report_from_json_rejects_a_summary_that_is_not_the_claims_counts(summary, message):
    data = _report_data()
    data["summary"] = summary
    with pytest.raises(ValueError) as info:
        cl.VerificationReport.from_json(json.dumps(data))
    assert str(info.value) == message


def test_report_from_json_rejects_deep_nesting_in_one_line():
    with pytest.raises(ValueError) as info:
        cl.VerificationReport.from_json("[" * 100_000 + "]" * 100_000)
    assert "\n" not in str(info.value)


# Arbitrary JSON values, for whole documents and for the parts of a report
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, path=()):
    """Every path into a JSON value, its root first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


@st.composite
def _mutated_report(draw):
    """The default report's JSON with one part replaced by an arbitrary
    value, or removed."""
    data = _report_data()
    path = draw(st.sampled_from(list(_paths(data))))
    if not path:
        return json.dumps(draw(_JSON))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return json.dumps(data)


def _loads_or_raises_value_error(text):
    """Whatever from_json accepts, it writes back as the text's canonical bytes."""
    try:
        report = cl.VerificationReport.from_json(text)
    except ValueError:
        return
    assert report.to_json() == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@settings(max_examples=100)
@given(st.text() | _JSON.map(json.dumps))
def test_report_from_json_raises_only_value_error_on_any_text(text):
    _loads_or_raises_value_error(text)


@settings(max_examples=100)
@given(_mutated_report())
def test_report_from_json_raises_only_value_error_on_a_mutated_report(text):
    _loads_or_raises_value_error(text)


# refusals of a parsed argv, each one `error:` line, no stdout and no --json file: (argv, part of that line)
_REFUSALS = [
    ("verify", "pass --claim <id> or --all"),
    ("verify --claim nope", "unknown claim 'nope'; known claims: boxtimes, "),
    ("verify --claim semidirect --k 0", "k must be in 2..7, got 0"),
    ("verify --all --max-n 0", "n must be at least 4, got 0"),
    # 2^8 points no longer fit in a group key: refused before any claim runs
    ("verify --all --max-k 8 --cap 1000", "k must be in 2..7, got 8"),
    ("gens --family s_alpha", "--k is required for tree families"),
    ("gens --family syl2_A --k 3", "--n is required for syl2_S / syl2_A"),
    ("gens --family s_beta --k 0", "need k >= 2, got 0"),
    ("order --n -1 --kind S", "need n >= 1, got -1"),
    ("order --n 0 --kind A", "need n >= 1, got 0"),
    ("decompose --n 0", "need n >= 1, got 0"),
]


@pytest.mark.parametrize(
    "argv, fragment", [pytest.param(a, f, id="-".join(a.replace("--", "").split())) for a, f in _REFUSALS]
)
@pytest.mark.parametrize("with_json", [False, True], ids=["text", "json"])
def test_cli_refusal_is_one_error_line(argv, fragment, with_json, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(argv.split() + (["--json", str(path)] if with_json else [])) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert fragment in err
    assert out == ""
    assert not path.exists()


def test_cli_verify_at_the_deepest_k_skips_past_the_cap(capsys):
    # the deepest accepted k: groups past the cap are skipped, not failed
    assert cli.main(["verify", "--all", "--max-k", "7", "--cap", "1000"]) == 0
    out = capsys.readouterr().out
    assert ", 0 fail, " in out
    assert not any(line.startswith("fail") for line in out.splitlines())


def test_cli_verify_refuses_n_below_the_smallest_boxtimes_degree(tmp_path, capsys):
    assert min(cl.BOXTIMES_DEGREES) == 4
    for argv in (["--claim", "boxtimes", "--max-n", "3"], ["--all", "--cap", "1", "--max-n", "1"]):
        assert cli.main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--claim", "boxtimes", "--max-n", "4", "--json", str(out)]) == 0
    record = json.loads(out.read_text())["claims"][0]
    assert record["status"] == "pass"
    assert record["witnesses"]["orders"] == {"4": 4}


@pytest.mark.parametrize(
    "limits, message",
    [
        ({"max_k": 1}, "k must be in 2..7, got 1"),
        ({"max_k": 8}, "k must be in 2..7, got 8"),
        ({"max_n": 3}, "n must be at least 4, got 3"),
        ({"cap": 0}, "--cap must be positive"),
    ],
)
def test_claim_context_refuses_limits_out_of_range(limits, message):
    assert cl.group_engine.MAX_DEGREE.bit_length() - 1 == 7
    with pytest.raises(ValueError) as info:
        cl.ClaimContext(**limits)
    assert str(info.value) == message


# A fixed vocabulary for argv. Each valued flag draws from its own values,
# which keep every verify run at max_k <= 3, so each example takes well under
# a second. Each subcommand draws mostly its own flags, and a few stray tokens.
_FLAG_VALUES = {
    "--n": [-1, 0, 1, 3, 4, 12],
    "--k": [-1, 0, 1, 2, 3, 8, 9],
    "--max-k": [-1, 0, 1, 2, 3],
    "--max-n": [-1, 0, 1, 3, 4, 12],
    "--cap": [-1, 0, 1, 2, 16, 1000],
    "--seed": [-1, 0, 7],
    "--kind": ["S", "A", "X"],
    "--family": ["s_alpha", "s_beta", "syl2_S", "syl2_A", "nope"],
    "--claim": ["order-gk", "BOXTIMES", "nope"],
    "--json": [os.path.join(os.devnull, "report.json")],  # no file can be made there
}
_COMMAND_FLAGS = {
    "order": ["--n", "--kind", "--json"],
    "decompose": ["--n", "--json"],
    "gens": ["--k", "--n", "--family", "--json"],
    "verify": ["--claim", "--all", "--k", "--n", "--max-k", "--max-n", "--cap", "--seed",
               "--strict", "--json"],
}
_STRAY_TOKENS = ["--version", "--help", "--n", "--cap", "-1", "0", "3", "verify"]


def _option_groups(command):
    groups = [[token] for token in _STRAY_TOKENS]
    for flag in _COMMAND_FLAGS[command]:
        values = _FLAG_VALUES.get(flag)
        groups += [[flag, str(v)] for v in values] if values else [[flag]]
    return groups


def _argv(command):
    # verify starts from --max-k 3, in place of the default 4; a later
    # --max-k or --k in the draw overrides it
    head = [command] + (["--max-k", "3"] if command == "verify" else [])
    return st.lists(st.sampled_from(_option_groups(command)), max_size=5).map(
        lambda groups: head + [token for group in groups for token in group]
    )


@settings(max_examples=40)
@given(st.sampled_from(sorted(_COMMAND_FLAGS)).flatmap(_argv))
def test_cli_main_returns_an_int_and_never_raises(argv):
    assert type(cli.main(argv)) is int


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--n", "8", "--kind", "A"],
        ["decompose", "--n", "22"],
        ["gens", "--k", "2", "--family", "s_alpha"],
        ["verify", "--claim", "order-gk", "--k", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_unwritable_json_path_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli.main(argv + ["--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    # refused before any output: verify checks the path before any claim runs, and every
    # command's text is printed only after its document is written
    assert out == ""
    assert not path.parent.exists()


def test_cli_verify_strict_with_small_cap(tmp_path, capsys):
    args = ["verify", "--claim", "order-gk", "--cap", "32"]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert cli.main(args + ["--strict"]) == 1
    assert "skipped-cap" in capsys.readouterr().out


def test_cli_usage_error_exit_code(capsys):
    assert cli.main(["order"]) == 2  # missing required flags
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


def test_cli_verify_deterministic_report(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli.main([
            "verify", "--claim", "t-nonclosure",
            "--json", str(path), "--seed", "0",
        ])
        assert code == 0
        capsys.readouterr()
    first = json.loads(paths[0].read_text())
    second = json.loads(paths[1].read_text())
    for payload in (first, second):
        for record in payload["claims"]:
            record["runtime_ms"] = 0
        payload["timestamp"] = ""
    assert first == second


# --- witnesses and cap skips --------------------------------------------------

REFERENCE = Path(__file__).resolve().parent.parent / "benchmark" / "reference" / "cli_default.json"
ENUMERATING = [
    "boxtimes", "evenness", "frattini-level", "minimality", "order-gk",
    "parity-extension", "semidirect", "small-fingerprints", "w-structure",
]


def _statuses_and_witnesses(report_text):
    return {
        c["claim_id"]: {"status": c["status"], "witnesses": c["witnesses"]}
        for c in json.loads(report_text)["claims"]
    }


def test_default_run_matches_the_recorded_witnesses():
    reference = json.loads(REFERENCE.read_text())["claims"]
    assert _statuses_and_witnesses(_full_report().to_json()) == reference


def test_a_cap_of_the_largest_group_order_skips_nothing(tmp_path, capsys):
    # |G_4| = 2^14 is the largest group verify enumerates, and every derived
    # subgroup is bounded by the order of its parent, not by the cap
    reference = json.loads(REFERENCE.read_text())["claims"]
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--all", "--cap", "16384", "--json", str(out)]) == 0
    assert "summary: 14 pass, 0 fail, 0 skipped-cap" in capsys.readouterr().out
    assert _statuses_and_witnesses(out.read_text()) == reference


def _assert_passed_or_skipped(records):
    for record in records:
        assert record.status in ("pass", "skipped-cap"), (record.claim_id, record.witnesses)
        if record.status == "skipped-cap":
            assert record.witnesses["skipped"], record.claim_id


@pytest.mark.parametrize("cap", range(1, 17))
def test_every_enumerating_claim_skips_past_a_small_cap(cap):
    report = cl.run_claims(ENUMERATING, cl.ClaimContext(max_k=3, cap=cap), version=__version__)
    assert [c.claim_id for c in report.claims] == ENUMERATING
    _assert_passed_or_skipped(report.claims)
    assert report.summary()["skipped-cap"] > 0
    assert report.exit_code() == 0


def test_cli_verify_all_below_cap_16_writes_its_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--all", "--cap", "10", "--json", str(out)]) == 0
    capsys.readouterr()
    report = cl.VerificationReport.from_json(out.read_text())
    assert [c.claim_id for c in report.claims] == cl.claim_ids()
    _assert_passed_or_skipped(report.claims)
    assert cli.main(["verify", "--all", "--cap", "10", "--strict"]) == 1
    assert "skipped-cap" in capsys.readouterr().out
