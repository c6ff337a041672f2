import json
from functools import lru_cache

import pytest

from sylow2 import __version__, cli
from sylow2 import claims as cl
from sylow2 import group_engine as ge
from sylow2.sylow_builders import s_beta


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


def test_tree_group_uses_cache_dir(tmp_path):
    ctx = cl.ClaimContext(max_k=3, cache_dir=tmp_path)
    G = cl.tree_group(ctx, 3)
    assert G.order == 64
    cache_file = tmp_path / "G_3.json"
    assert cache_file.exists()

    # the cached copy is picked up by a fresh context
    ctx2 = cl.ClaimContext(max_k=3, cache_dir=tmp_path)
    assert cl.tree_group(ctx2, 3).elements == G.elements

    # a corrupt cache entry falls back to a rebuild
    cache_file.write_text("{not json")
    ctx3 = cl.ClaimContext(max_k=3, cache_dir=tmp_path)
    assert cl.tree_group(ctx3, 3).order == 64


def _g3_payload(**changes):
    G = ge.generate(s_beta(3))
    payload = {
        "format": ge.CACHE_FORMAT, "degree": 8, "label": "G_3", "order": 64,
        "elements": sorted(k.hex() for k in G.elements),
    }
    payload.update(changes)
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        _g3_payload(degree="8"),
        {k: v for k, v in _g3_payload().items() if k != "elements"},
        [_g3_payload()],
        _g3_payload(order="64"),
        _g3_payload(order=True, elements=[bytes(range(8)).hex()]),
        _g3_payload(elements="00"),
        _g3_payload(elements=[0, 1]),
        _g3_payload(label=["G_3"]),
    ],
    ids=[
        "string-degree", "missing-elements", "top-level-list", "string-order",
        "bool-order", "elements-not-list", "element-not-string", "label-not-string",
    ],
)
def test_malformed_cache_file_is_rebuilt(payload, tmp_path, monkeypatch, capsys):
    cache_file = tmp_path / "G_3.json"
    cache_file.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        ge.load_group(cache_file)
    monkeypatch.setenv(cli.ENV_CACHE_DIR, str(tmp_path))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--claim", "order-gk", "--json", str(out)]) == 0
    capsys.readouterr()
    report = cl.VerificationReport.from_json(out.read_text())
    assert report.claims[0].status == "pass"
    assert ge.load_group(cache_file).order == 64


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
        "--cache", str(tmp_path), "--json", str(tmp_path / "r.json"),
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


def test_cli_verify_strict_with_small_cap(tmp_path, capsys):
    args = ["verify", "--claim", "order-gk", "--cap", "32", "--cache", str(tmp_path)]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert cli.main(args + ["--strict"]) == 1
    assert "skipped-cap" in capsys.readouterr().out


def test_cli_usage_error_exit_code(capsys):
    assert cli.main(["order"]) == 2  # missing required flags
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_CACHE_DIR, str(tmp_path / "envcache"))
    assert cli._default_cache_dir() == tmp_path / "envcache"
    monkeypatch.delenv(cli.ENV_CACHE_DIR)
    assert cli._default_cache_dir().name == "sylow2"


def test_cli_verify_deterministic_report(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli.main([
            "verify", "--claim", "t-nonclosure",
            "--cache", str(tmp_path), "--json", str(path), "--seed", "0",
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
