"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero): closed forms against brute-force
oracles over the stated input ranges.  Each test prints a single
pass/fail line (visible with pytest -s), enforces the stated runtime
budget, and pins the number of cases checked, so that a change which
silently drops inputs fails here.
"""

import time

from sp2n import weights
from sp2n.harness import (
    check_element_vs_direct,
    check_unisingular_vs_sweeps,
    run_suite,
)


def _finish(num, desc, started, budget, failures, cases, expected_cases):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:2d}: {desc} ({cases} cases, {elapsed:.1f}s)")
    assert not failures, failures[:5]
    assert cases == expected_cases, f"criterion {num} checked {cases} cases, expected {expected_cases}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def _via_suite(num, desc, name, max_n, budget, expected_cases):
    started = time.perf_counter()
    rep = run_suite(name, max_n)
    _finish(num, desc, started, budget, rep.failures, rep.cases, expected_cases)
    return rep


def test_criterion_01_singer_height_table():
    rep = _via_suite(1, "Singer height table and fast path, n <= 24", "si", 24, 5, 56)
    assert any("Si(12)" in note for note in rep.notes), "contested value must be reported"


def test_criterion_02_dominance_oracle():
    weights._inverse_cartan.cache_clear()  # time cold inversions, not ones earlier tests have made
    _via_suite(2, "dominance closed form vs inverse Cartan matrix, n <= 5", "dominance", 5, 30, 75808)


def test_criterion_03_zero_weight_equivalence():
    _via_suite(3, "zero-weight three-way equivalence, n <= 6", "m22", 6, 30, 63)


def test_criterion_04_abelian_criterion():
    _via_suite(4, "abelian criterion vs all-torus sweep, n <= 4", "ee3", 4, 30, 30)


def test_criterion_05_per_torus_criterion():
    _via_suite(5, "per-torus criterion vs direct restriction, n <= 4", "s10", 4, 20, 212)


def test_criterion_06_unisingularity():
    started = time.perf_counter()
    cases, failures = check_unisingular_vs_sweeps(4)
    _finish(6, "unisingularity vs exhaustive torus sweeps, n <= 4", started, 60, failures, cases, 30)


def test_criterion_07_singer_cycle_spectrum():
    _via_suite(7, "Singer-cycle verdict vs direct evaluation, n <= 6", "th2", 6, 30, 5460)


def test_criterion_08_top_fundamental_spectrum():
    _via_suite(8, "top-fundamental spectra vs direct evaluation, n <= 4", "ff2", 4, 60, 226)


def test_criterion_09_per_element_criterion():
    started = time.perf_counter()
    cases, failures = check_element_vs_direct(4)
    _finish(9, "per-element criterion vs direct evaluation, n <= 4", started, 60, failures, cases, 1529)


def test_criterion_10_block_vanishing():
    _via_suite(10, "block vanishing iff delta below block count, n <= 5", "th7", 5, 20, 879)


def test_criterion_11_branching():
    _via_suite(11, "linear-to-symplectic branching oracles, N <= 12", "branching", 12, 10, 61)


def test_criterion_12_counterexamples():
    _via_suite(12, "odd exterior powers miss eigenvalue 1; even control has it",
               "counterexamples", None, 5, 8)
