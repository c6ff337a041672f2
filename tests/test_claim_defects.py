"""Each claim against a planted defect in the code it checks: the claim must
fail, and its failures must name the units the defect breaks. The guards
that keep a sweep from passing on nothing are tested here too."""

import dataclasses

from sylow2 import cli
from sylow2 import claims as cl
from sylow2 import group_engine as ge
from sylow2 import sylow_builders as sb
from sylow2 import tree_core as tc


def _run_one(claim_id, **ctx):
    [record] = cl.run_claims([claim_id], cl.ClaimContext(**ctx), version="test").claims
    return record


def _without_last(build):
    """A generator builder whose sets lose their last generator."""

    def shorter(k):
        gens = build(k)
        return ge.GeneratorSet(gens.name, gens.degree, gens.elements[:-1])

    return shorter


# --- planted defects --------------------------------------------------------


def test_w_structure_fails_when_w_is_built_from_the_b_generators(monkeypatch):
    monkeypatch.setattr(sb, "w_subgroup_generators", sb.s_alpha)
    record = _run_one("w-structure")
    assert record.status == "fail"
    failures = record.witnesses["failures"]
    assert set(failures) == {"3", "4"}
    assert not any(failure["abelian"] for failure in failures.values())


def test_semidirect_fails_without_the_last_w_generator(monkeypatch):
    monkeypatch.setattr(sb, "w_subgroup_generators", _without_last(sb.w_subgroup_generators))
    record = _run_one("semidirect")
    assert record.status == "fail"
    failures = record.witnesses["failures"]
    assert set(failures) == {"2", "3", "4"}
    assert not any(failure["checks"]["order_product"] for failure in failures.values())


def test_order_gk_and_minimality_fail_without_the_last_alpha(monkeypatch):
    s_alpha, shorter = sb.s_alpha, _without_last(sb.s_alpha)
    monkeypatch.setattr(sb, "s_alpha", lambda k: s_alpha(k) if k == 2 else shorter(k))
    order = _run_one("order-gk")
    assert order.status == "fail"
    assert order.witnesses["failures"] == {
        "3": {"expected": 64, "got": 8},
        "4": {"expected": 16384, "got": 512},
    }
    minimality = _run_one("minimality")
    assert minimality.status == "fail"
    failures = minimality.witnesses["failures"]
    assert set(failures) == {"3", "4"}
    for k_text, failure in failures.items():
        k = int(k_text)
        assert failure["rank"] == k - 1
        assert failure["generating_small_subsets"]
        assert all(len(subset) == k - 1 for subset in failure["generating_small_subsets"])


def test_minimality_fails_when_the_squares_take_an_extra_generator(monkeypatch):
    def squares_and_last_generator(G):
        squares = {ge._mul(x, x) for x in G.elements} | {G.gen_keys[-1]}
        return ge._dimino(sorted(squares), G.degree, G.order)

    monkeypatch.setattr(ge, "squares_subgroup", squares_and_last_generator)
    record = _run_one("minimality")
    assert record.status == "fail"
    # the Frattini subgroup is its own closure, so the rank stays right and
    # only the comparison with the planted squares fails
    frattini = {"2": 1, "3": 8, "4": 1024}
    assert record.witnesses["failures"] == {
        k: {"squares_vs_frattini": {"squares": 2 * order, "frattini": order}}
        for k, order in frattini.items()
    }


def test_order_ratios_and_boxtimes_fail_on_a_constant_sylow_exponent(monkeypatch):
    monkeypatch.setattr(sb, "syl2_order", lambda n, kind: 3)
    ratios = _run_one("order-ratios")
    assert ratios.status == "fail" and ratios.witnesses["failures"]
    boxtimes = _run_one("boxtimes")
    assert boxtimes.status == "fail"
    # n = 6 and 7 have Sylow 2-subgroups of order 2^3 in A_n
    assert set(boxtimes.witnesses["failures"]) == {"4", "8", "12"}


def test_small_fingerprints_fails_on_a_wrong_sylow_exponent(monkeypatch):
    monkeypatch.setattr(sb, "syl2_order", lambda n, kind: 4)
    record = _run_one("small-fingerprints")
    assert record.status == "fail"
    assert record.witnesses["failures"] == {"order_exponents": {"A_7": 4, "A_6": 4}}


def test_small_fingerprints_checks_the_a6_exponent_on_its_own(monkeypatch):
    syl2_order = sb.syl2_order
    monkeypatch.setattr(
        sb, "syl2_order", lambda n, kind: 2 if (n, kind) == (6, "A") else syl2_order(n, kind)
    )
    record = _run_one("small-fingerprints")
    assert record.status == "fail"
    assert record.witnesses["failures"] == {"order_exponents": {"A_7": 3, "A_6": 2}}


def test_boxtimes_checks_the_paper_table_apart_from_syl2_order(monkeypatch):
    # at n = 6 the group and syl2_order agree on 2^2; only the table says 2^3
    boxtimes_group, syl2_order = sb.boxtimes_group, sb.syl2_order
    monkeypatch.setattr(
        sb, "boxtimes_group", lambda n, cap: boxtimes_group(4 if n == 6 else n, cap)
    )
    monkeypatch.setattr(
        sb, "syl2_order", lambda n, kind: 2 if (n, kind) == (6, "A") else syl2_order(n, kind)
    )
    record = _run_one("boxtimes")
    assert record.status == "fail"
    assert record.witnesses["failures"] == {"6": {"expected": 8, "got": 4}}


def test_boxtimes_checks_syl2_order_where_the_table_is_silent(monkeypatch):
    boxtimes_group = sb.boxtimes_group
    monkeypatch.setattr(
        sb, "boxtimes_group", lambda n, cap: boxtimes_group(8 if n == 7 else n, cap)
    )
    record = _run_one("boxtimes")
    assert record.status == "fail"
    assert record.witnesses["failures"] == {"7": {"expected": 8, "got": 64}}


def test_boxtimes_checks_the_paper_table_at_n_12(monkeypatch):
    # at n = 12 the group and syl2_order agree on 2^6; only the table says 2^9
    boxtimes_group, syl2_order = sb.boxtimes_group, sb.syl2_order
    monkeypatch.setattr(
        sb, "boxtimes_group", lambda n, cap: boxtimes_group(8 if n == 12 else n, cap)
    )
    monkeypatch.setattr(
        sb, "syl2_order", lambda n, kind: 6 if (n, kind) == (12, "A") else syl2_order(n, kind)
    )
    record = _run_one("boxtimes")
    assert record.status == "fail"
    assert record.witnesses["failures"] == {"12": {"expected": 512, "got": 64}}


# --- generator words and non-vacuity guards ---------------------------------


def test_tau_ij_generation_reports_a_word_that_fails_its_check(monkeypatch, capsys):
    # with a one-state tau, the word built for (1,3) no longer evaluates to tau_(1,3)
    monkeypatch.setattr(sb, "tau", lambda k: sb.tau_set([1], k))
    record = _run_one("tau-ij-generation")
    assert record.status == "fail"
    failures = record.witnesses["failures"]
    assert "(1,3)" in failures and "(1,2)" not in failures
    assert cli.main(["verify", "--claim", "tau-ij-generation"]) == 1
    assert "(1,3)" in capsys.readouterr().out


def test_tau_ij_generation_fails_unless_it_checks_six_pairs(monkeypatch):
    tau_ij_word = sb.tau_ij_word

    def no_word_for_2_4(i, j, k):
        if (i, j) == (2, 4):
            raise RuntimeError("no word for tau_(2,4)")
        return tau_ij_word(i, j, k)

    monkeypatch.setattr(sb, "tau_ij_word", no_word_for_2_4)
    record = _run_one("tau-ij-generation")
    assert record.status == "fail"
    assert record.witnesses["failures"] == {
        "(2,4)": "no word for tau_(2,4)",
        "pairs_checked": {"expected": 6, "got": 5},
    }
    assert "(2,4)" not in record.witnesses["words"]


def test_t_nonclosure_fails_when_no_element_is_of_type_t(monkeypatch):
    classify = tc.classify_element
    monkeypatch.setattr(
        tc, "classify_element",
        lambda p: dataclasses.replace(classify(p), kind=tc.ElementKind.NEITHER),
    )
    record = _run_one("t-nonclosure")
    assert record.status == "fail"
    assert record.witnesses["t_size"] == 0
    assert record.witnesses["failures"] == {"t_size": {"expected": 4, "got": 0}}


def test_portrait_oracle_fails_when_it_compares_no_pair(monkeypatch):
    monkeypatch.setattr(tc, "iter_portraits", lambda k: iter(()))
    record = _run_one("portrait-oracle")
    assert record.status == "fail"
    assert record.witnesses == {
        "pairs_checked": 0,
        "failures": {"pairs_checked": {"expected": 16384, "got": 0}},
    }
