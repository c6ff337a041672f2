import json
import os
from collections import Counter
from functools import lru_cache

import pytest

from sylow2 import __version__, cli
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


def test_report_round_trip_is_byte_identical():
    report = _full_report()
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
    builds = Counter()
    generate = cl.group_engine.generate

    def counting_generate(gens, *args, **kwargs):
        name = getattr(gens, "name", "")
        if name.startswith("S_beta"):
            builds[name] += 1
        return generate(gens, *args, **kwargs)

    monkeypatch.setattr(cl.group_engine, "generate", counting_generate)
    report = cl.run_claims(cl.claim_ids(), cl.ClaimContext(max_k=4, cap=1000), version=__version__)
    # G_4 (order 16384) passes the cap; every claim that reaches k = 4 gets
    # the one cap error its enumeration raised
    assert builds == {f"S_beta(k={k})": 1 for k in (2, 3, 4)}
    skipped_at_k4 = {
        c.claim_id
        for c in report.claims
        if {"k": 4, "partial_count": 1000} in c.witnesses.get("skipped", [])
    }
    assert skipped_at_k4 == {"evenness", "frattini-level", "minimality", "order-gk", "semidirect"}


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
    with pytest.raises(KeyError):
        cl.resolve_claim_id("bogus")


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


def test_cli_gens_json(tmp_path, capsys):
    out = tmp_path / "gens.json"
    assert cli.main(["gens", "--k", "2", "--family", "s_alpha", "--json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["degree"] == 4
    assert payload["generators"][0]["label"] == "a0"
    assert payload["generators"][0]["portrait"].startswith("k=2;")


def test_cli_verify_single_claim(tmp_path, capsys):
    code = cli.main([
        "verify", "--claim", "order-Gk", "--k", "3",
        "--json", str(tmp_path / "r.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "order-gk" in out
    report = cl.VerificationReport.from_json((tmp_path / "r.json").read_text())
    assert report.claims[0].status == "pass"
    assert report.parameters["max_k"] == 3


def test_cli_verify_requires_claim_or_all(capsys):
    assert cli.main(["verify"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_verify_unknown_claim(capsys):
    assert cli.main(["verify", "--claim", "nope"]) == 2
    assert "unknown claim" in capsys.readouterr().err


def test_cli_verify_bad_parameters(capsys):
    assert cli.main(["verify", "--claim", "semidirect", "--k", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--all", "--max-n", "0"]) == 2
    capsys.readouterr()
    # 2^8 points no longer fit in a group key: refused before any claim runs
    assert cli.main(["verify", "--all", "--max-k", "8", "--cap", "1000"]) == 2
    captured = capsys.readouterr()
    assert "2..7" in captured.err
    assert captured.out == ""
    # the deepest accepted k: groups past the cap are skipped, not failed
    assert cli.main(["verify", "--all", "--max-k", "7", "--cap", "1000"]) == 0
    out = capsys.readouterr().out
    assert ", 0 fail, " in out
    assert not any(line.startswith("fail") for line in out.splitlines())


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
    assert cli.main(argv + ["--json", str(tmp_path / "missing" / "x.json")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "verify":
        # the path is checked before any claim runs
        assert out == ""


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
