import ast
import importlib
import inspect
import json
from math import lcm
from pathlib import Path

import pytest

from sp2n import elements, harness, reps, tori, weights
from sp2n.criteria import NO, YES, Verdict
from sp2n.elements import build_element, enumerate_elements, generator_tuples, parse_element, to_torus_element
from sp2n.harness import SUITE_NAMES, run_suite
from sp2n.tori import block_sums, factor_orders
from sp2n.weights import EpsWeight, Weight, fundamental


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize("name", ["fr1", "counterexamples", "all"])
@pytest.mark.parametrize("max_n", [0, -3])
def test_cap_below_one_is_refused(name, max_n):
    # a cap below 1 would check nothing and still report a pass
    with pytest.raises(ValueError, match="at least 1"):
        run_suite(name, max_n)


@pytest.mark.parametrize(("max_n", "cases"), [(2, 6), (3, 8), (6, 8)])
def test_counterexamples_keep_their_cap(max_n, cases):
    # six cases live at rank 2 and two at rank 3
    report = run_suite("counterexamples", max_n)
    assert (report.max_n, report.cases, report.passed) == (max_n, cases, True)


@pytest.mark.parametrize("name", ["branching", "counterexamples", "all"])
def test_cap_that_leaves_a_suite_no_case_is_refused(name):
    # branching and counterexamples have no case at rank 1, and "all" runs them
    with pytest.raises(ValueError, match="no case to check; it must be at least 2"):
        run_suite(name, 1)


def test_suite_names():
    assert set(SUITE_NAMES) == {
        "dominance", "si", "m22", "ee3", "s10", "th2", "ff2", "fr1", "th7",
        "branching", "counterexamples", "all",
    }


def test_reports_are_deterministic():
    a = run_suite("si", 12)
    b = run_suite("si", 12)
    assert a.to_json() == b.to_json()
    a = run_suite("counterexamples")
    b = run_suite("counterexamples")
    assert a.to_json() == b.to_json()


def test_report_schema():
    rep = run_suite("dominance", 2)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"suite", "max_n", "cases", "failures", "pass", "notes"}
    assert payload["suite"] == "dominance"
    assert payload["max_n"] == 2
    assert isinstance(payload["cases"], int)
    assert payload["failures"] == []
    assert payload["pass"] is True
    for f in rep.failures:
        assert set(f) == {"input", "fast", "oracle"}


def test_si_suite_reports_contested_reference_value():
    rep = run_suite("si", 12)
    assert rep.passed
    assert any("Si(12)" in note for note in rep.notes)
    rep = run_suite("si", 11)
    assert rep.notes == []


def test_all_suite_small():
    rep = run_suite("all", 2)
    assert rep.suite == "all"
    assert rep.passed
    assert rep.cases > 0
    # sub-suite names prefix the failure inputs; check the note prefixes too
    assert all(":" in note for note in rep.notes) or rep.notes == []


def test_small_suites_pass():
    for name in ("m22", "ee3", "s10", "th2", "ff2", "fr1", "th7"):
        rep = run_suite(name, 2)
        assert rep.passed, (name, rep.failures[:3])
    assert run_suite("branching", 6).passed
    assert run_suite("counterexamples").passed


def test_documented_suite_calls():
    assert run_suite("si", 11).passed
    assert run_suite("m22", 5).passed
    assert run_suite("dominance", 4).passed


def test_wall_time_excluded_from_json():
    rep = run_suite("si", 5)
    assert rep.wall_time > 0
    assert "wall" not in rep.to_json()


def test_dominance_inverts_once_per_rank():
    # the oracle's work is deterministic: from cold caches the suite inverts
    # the Cartan matrix of each rank up to its cap once
    weights._inverse_cartan.cache_clear()
    rep = run_suite("dominance")
    assert rep.cases == 75808 and rep.passed
    assert weights._inverse_cartan.cache_info().misses == 5


def test_dominance_reports_a_fault_in_the_root_data(monkeypatch):
    # type B's short root e_n in place of the long root 2e_n: the oracle
    # answers for the wrong root system, and the suite says so
    root = weights.simple_root
    monkeypatch.setattr(weights, "simple_root", lambda n, i: EpsWeight((0,) * (n - 1) + (1,)) if i == n else root(n, i))
    weights._inverse_cartan.cache_clear()
    try:
        cases, failures = harness._tally(harness._suite_dominance(3))
    finally:
        weights._inverse_cartan.cache_clear()
    assert (cases, len(failures)) == (12974, 3108)


def test_dominance_reports_a_closed_form_without_its_parity_test(monkeypatch):
    # doubling hi - lo keeps the prefix sums' signs and makes the last one even
    closed_form = harness.dominates
    monkeypatch.setattr(harness, "dominates", lambda hi, lo: closed_form(2 * hi, 2 * lo))
    cases, failures = harness._tally(harness._suite_dominance(3))
    assert (cases, len(failures)) == (12974, 2634)


def test_dominance_searches_once_per_difference(monkeypatch):
    # the oracle reads hi - lo only, so the suite's pairs share one call
    # per distinct coefficient difference of a rank
    calls = 0
    search = harness.dominates_oracle

    def counting_search(hi, lo):
        nonlocal calls
        calls += 1
        return search(hi, lo)

    monkeypatch.setattr(harness, "dominates_oracle", counting_search)
    rep = run_suite("dominance")
    assert rep.cases == 75808 and rep.passed
    assert calls == 10961


def _place_keys(call, monkeypatch):
    """call() and the number of keys the passes of `_place` create for it
    from cold engine caches."""
    keys = 0
    place = tori._place

    def counting_place(*args):
        nonlocal keys
        out = place(*args)
        keys += len(out)
        return out

    monkeypatch.setattr(tori, "_place", counting_place)
    tori._zero.cache_clear()
    return call(), keys


def test_th2_residue_keys_are_pinned(monkeypatch):
    # the placement engine is deterministic, so the number of keys the passes
    # of `value_mask` create over the whole suite catches a complexity regression
    rep, keys = _place_keys(lambda: run_suite("th2"), monkeypatch)
    assert rep.cases == 5460 and rep.passed
    assert keys == 10181


def test_th2_answers_one_rank_past_its_cap():
    assert harness._tally(harness._suite_th2(7)) == (21844, [])


def test_ff2_answers_two_ranks_past_its_cap():
    assert harness._tally(harness._suite_ff2(6)) == (2554, [])


def test_th2_oracle_reports_a_flipped_verdict(monkeypatch):
    # flip the closed form on one weight: the mask oracle must disagree there only
    w = Weight((2, 0))
    real = harness.singer_cycle_has_one
    monkeypatch.setattr(harness, "singer_cycle_has_one", lambda v: real(v) != (v == w))
    cases, failures = harness._tally(harness._suite_th2(2))
    assert cases == 20
    assert failures == [{"input": f"n=2 w={w}", "fast": str(not real(w)), "oracle": str(real(w))}]


def test_ff2_oracle_reports_every_tuple_of_a_wrong_prediction(monkeypatch):
    # a wrong prediction at one element gives one record per generator tuple,
    # each with its own input, although the tuples share their canonical forms
    g = build_element([(2, 5, -1), (1, 3, -1)])
    real = harness.omega_n_eigenvalue_orders
    monkeypatch.setattr(harness, "omega_n_eigenvalue_orders", lambda h: real(h) | {7} if h == g else real(h))
    _, failures = harness._tally(harness._suite_ff2(3))
    tuples = list(generator_tuples(g))
    assert len(failures) == len(tuples) > 1
    assert [f["input"] for f in failures] == [f"n=3 g={g} u={us}" for us in tuples]


def test_m22_oracle_reports_a_flipped_verdict_with_every_leg(monkeypatch):
    # one case compares the closed-form legs with the zero-membership answer,
    # and up to n = 4 the materialized and tensor legs with their oracles too
    low, high = Weight((1, 1)), Weight((1, 0, 1, 1, 1))
    real = harness.has_zero_weight
    monkeypatch.setattr(harness, "has_zero_weight", lambda v: real(v) != (v in (low, high)))
    rep = run_suite("m22", 5)
    assert rep.cases == 31
    assert rep.failures == [
        {"input": "n=2 w=1,1", "fast": "(True, False, False, False, '1,0; 1,1')",
         "oracle": "(False, False, False, False, '1,0; 1,1')"},
        {"input": "n=5 w=1,0,1,1,1", "fast": "(True, False, False)", "oracle": "(False, False, False)"},
    ]


def test_default_reports_match_the_recorded_reports():
    # the behaviour lock: every suite's default-cap report, byte for byte
    recorded = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected" / "suites.json").read_text())
    for name in recorded["order"]:
        assert run_suite(name).to_json() == recorded["reports"][name], name


@pytest.mark.parametrize("name, cases, pinned", [("ee3", 30, 934), ("s10", 212, 960)])
def test_torus_zero_test_keys_are_pinned(name, cases, pinned, monkeypatch):
    # the oracles of ee3 and s10 are the per-orbit zero test, shared across weight sets
    rep, keys = _place_keys(lambda: run_suite(name), monkeypatch)
    assert rep.cases == cases and rep.passed
    assert keys == pinned


def test_element_zero_test_keys_are_pinned(monkeypatch):
    (cases, failures), keys = _place_keys(lambda: harness.check_element_vs_direct(4), monkeypatch)
    assert cases == 1529 and failures == []
    assert keys == 758


@pytest.mark.parametrize("cap, cases, calls", [(4, 1529, 170), (5, 10121, 682)])
def test_element_oracle_asks_once_per_weight_and_form(cap, cases, calls, monkeypatch):
    # the tuples of rank n share 2^n distinct forms, and each weight asks
    # `zero_at` once for each of them, not once per generator tuple
    asked = []
    real = harness.zero_at

    def counting_zero_at(ws, form):
        asked.append((ws, form))
        return real(ws, form)

    monkeypatch.setattr(harness, "zero_at", counting_zero_at)
    tori._zero.cache_clear()
    assert harness.check_element_vs_direct(cap) == (cases, [])
    assert len(asked) == len(set(asked)) == calls


def test_element_forms_match_the_torus_embedding():
    # the reference route: at every generator tuple of ranks <= 7, the form
    # `_element_forms` builds from the element's coefficients is the canonical
    # form of the tuple's embedding into a compatible torus
    tuples = 0
    for n in range(1, 8):
        for g, forms in harness._element_forms(n):
            assert [us for us, _ in forms] == list(generator_tuples(g))
            for us, form in forms:
                assert form == tori.zero_form(to_torus_element(g, us)), (g, us)
            tuples += len(forms)
    assert tuples == 8137


def test_element_oracle_builds_each_graph_once():
    # `element_has_one` reads the coprimality graph of an element at every
    # weight; from a cold cache the 77 elements of ranks <= 5 build it once each
    elements.gamma_graph.cache_clear()
    assert harness.check_element_vs_direct(5) == (10121, [])
    info = elements.gamma_graph.cache_info()
    assert (info.misses, info.hits + info.misses) == (77, 844)


def test_element_fallback_keys_are_pinned(monkeypatch):
    # one fallback query: w_3 at 5:33:-;2:3:+ takes two distinct forms modulo 33
    w, g = fundamental(7, 3), parse_element("5:33:-;2:3:+")
    verdict, keys = _place_keys(lambda: harness.element_has_one(w, g), monkeypatch)
    assert verdict.decision == NO and verdict.fallback_used
    assert keys == 64


def test_torus_sweep_keys_are_pinned(monkeypatch):
    (cases, failures), keys = _place_keys(lambda: harness.check_unisingular_vs_sweeps(5), monkeypatch)
    assert cases == 62 and failures == []
    assert keys == 4885


def test_torus_sweeps_answer_at_rank_7():
    # fr1's sweep half one rank above the default cap, every shape included
    assert harness.check_unisingular_vs_sweeps(7) == (254, [])


def test_element_oracle_answers_at_rank_6():
    # fr1's element half two ranks above the default cap, every generator tuple included
    assert harness.check_element_vs_direct(6) == (67433, [])


def _value_by_blocks(mu, t):
    """The value of mu at t from its block residues, without `eval_coefficients`."""
    orders = factor_orders(t.shape)
    L = lcm(*orders)
    return sum(L // o * m * r for o, m, r in zip(orders, t.exponents, block_sums(mu, t.shape))) % L


def _member_by_member(max_n):
    """Reference element oracle: every member of L(w) evaluated from its
    block residues at every generator tuple, none tried first."""
    cases, failures = 0, []
    for n in range(1, max_n + 1):
        elements = enumerate_elements(n)
        for w in harness._restricted_top(n):
            ws = reps.weight_set(w)
            for g in elements:
                fast = harness.element_has_one(w, g).decision == YES
                for us in generator_tuples(g):
                    cases += 1
                    t = to_torus_element(g, us)
                    direct = any(_value_by_blocks(mu, t) == 0 for mu in ws)
                    if fast != direct:
                        failures.append({"input": f"n={n} w={w} g={g} u={us}",
                                         "fast": str(fast), "oracle": str(direct)})
    return cases, failures


@pytest.mark.parametrize("n", range(1, 5))
def test_element_oracle_matches_member_by_member_loop(n):
    got = harness.check_element_vs_direct(n)
    assert got == _member_by_member(n)
    assert got[1] == []


def test_element_oracle_reports_a_flipped_verdict(monkeypatch):
    # flip the closed form on one (w, g) pair at n = 3: both oracles must
    # report the same records, one per generator tuple of g
    w, g = Weight((0, 1, 1)), build_element([(2, 5, -1), (1, 3, -1)])
    real = harness.element_has_one

    def flipped(w2, g2):
        v = real(w2, g2)
        return Verdict(NO if v.decision == YES else YES, v.citations, v.fallback_used) if (w2, g2) == (w, g) else v

    monkeypatch.setattr(harness, "element_has_one", flipped)
    cases, failures = harness.check_element_vs_direct(3)
    assert (cases, failures) == _member_by_member(3)
    assert len(failures) == len(list(generator_tuples(g))) > 0
    assert all(f["input"].startswith(f"n=3 w={w} g={g} u=") for f in failures)


def test_element_oracle_caches_no_members():
    reps._weight_set_cached.cache_clear()
    harness.check_element_vs_direct(5)
    for n in range(1, 6):
        for w in harness._restricted_top(n):
            # the sets the oracle used (cache hits) and their a_n = 0 parts
            # (built here: the a_n = 1 rule never builds them) hold their
            # two slots and nothing else
            for ws in (reps.weight_set(w), reps.weight_set(w - fundamental(n, n))):
                assert type(ws).__slots__ == ("rank", "orbits") and not hasattr(ws, "__dict__"), w


def test_benchmark_reported_functions_stay_public():
    # the benchmark tracer reports these engine names one by one; each must
    # stay a public function defined in its module, or tracing breaks
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text())
    reported = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "REPORTED_FUNCTIONS" for t in node.targets))
    assert reported
    for qualname in reported:
        layer, name = qualname.split(".")
        module = importlib.import_module(f"sp2n.{layer}")
        fn = getattr(module, name, None)
        assert not name.startswith("_") and callable(fn) and not inspect.isclass(fn), qualname
        assert fn.__module__ == module.__name__, qualname
