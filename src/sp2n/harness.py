"""Exhaustive small-rank verification suites with deterministic JSON reports.

Each suite replays one closed-form rule against an independent brute-force
computation over every admissible input up to a rank cap.  A suite is a
generator that yields one check per case, (fast, oracle, fmt, args): the
closed form's answer, the oracle's, and the case's input as a format string
and its arguments.  A case with several legs compares tuples.  One loop,
`_tally`, counts the cases and keeps one failure record per disagreement,
formatting its input only then; an empty failure list is a pass.
Serialization is stable across runs (wall time is measured but excluded
from the JSON payload).
"""

import json
import time
from itertools import combinations, product
from math import gcd
from operator import getitem, mul

from .branching import (
    eps_restrict,
    exterior_factors,
    linear_fundamental,
    restrict_to_c,
    to_ambient_eps,
)
from .criteria import (
    YES,
    abelian_all,
    element_has_one,
    singer_cycle_has_one,
    th7_blocks,
    torus_trivial,
    unisingular,
)
from .elements import (
    enumerate_elements,
    generator_tuples,
    omega_n_eigenvalue_orders,
    singer_height,
    singer_height_fast,
)
from .reps import ModuleKind, has_zero_weight, minkowski_sum, weight_set, zero_in_weight_set
from .tori import (
    TorusShape,
    _canonical,
    _coefficients,
    block_sums,
    enumerate_shapes,
    factor_orders,
    singer_shape,
    trivial_constituent,
    unisingular_on_torus,
    value_mask,
    zero_at,
)
from .weights import (
    Weight,
    _Value,
    delta,
    dominant_representative,
    dominant_weights_up_to,
    dominates,
    dominates_oracle,
    fundamental,
    to_eps,
    weyl_orbit,
    zero_weight,
)

DOMINANCE_DELTA_CAP = 12
TH7_DELTA_CAP = 8

# previously published Singer heights, used as the comparison table
REFERENCE_SI = {3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 3, 10: 3, 11: 3}
REFERENCE_SI_CONTESTED = {12: 4}


class SuiteReport(_Value):
    """A suite's result: the one mutable, unhashable record among the values."""

    __slots__ = ("suite", "max_n", "cases", "failures", "notes", "wall_time")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, suite: str, max_n: int, cases: int, failures: list[dict] | None = None,
                 notes: list[str] | None = None, wall_time: float = 0.0):
        self.suite, self.max_n, self.cases, self.wall_time = suite, max_n, cases, wall_time
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "cases": self.cases,
            "failures": self.failures,
            "pass": self.passed,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _tally(checks) -> tuple[int, list[dict]]:
    """Run the checks a suite yields: (cases, failure records)."""
    cases, failures = 0, []
    for cases, (fast, oracle, fmt, args) in enumerate(checks, 1):
        if fast != oracle:
            failures.append({"input": fmt.format(*args), "fast": str(fast), "oracle": str(oracle)})
    return cases, failures


def _restricted(n: int):
    return (Weight(bits) for bits in product((0, 1), repeat=n))


def _restricted_top(n: int):
    return (Weight(bits + (1,)) for bits in product((0, 1), repeat=n - 1))


def _exterior(N: int, k: int):
    """The weights of the k-th exterior power of the natural SL_N-module, as 0/1 vectors."""
    return (tuple(1 if i in ones else 0 for i in range(N)) for ones in combinations(range(N), k))


# ---------------------------------------------------------------- suites


def _suite_dominance(max_n: int):
    """Every pair of the pool against the oracle.  The oracle solves for the
    coordinates of hi - lo over the simple roots, so its answer depends on
    the coefficient difference only: it runs once per distinct difference of
    a rank, and every pair is compared with the answer for its own.  A weight's
    coefficients lie in [0, cap], so the digits of hi - lo in base 2 cap + 1
    lie in [-cap, cap] and one integer difference of codes keys each one."""
    base = 2 * DOMINANCE_DELTA_CAP + 1
    for n in range(1, max_n + 1):
        pool = dominant_weights_up_to(n, DOMINANCE_DELTA_CAP)
        codes = [sum(a * base**i for i, a in enumerate(w.coeffs)) for w in pool]
        answers = {}  # code(hi) - code(lo) -> dominates_oracle(hi, lo)
        for hi, hi_code in zip(pool, codes):
            for lo, lo_code in zip(pool, codes):
                slow = answers.get(hi_code - lo_code)
                if slow is None:
                    slow = answers[hi_code - lo_code] = dominates_oracle(hi, lo)
                yield dominates(hi, lo), slow, "n={} hi={} lo={}", (n, hi, lo)


def _suite_si(max_n: int):
    for n in range(3, min(11, max_n) + 1):
        yield singer_height(n)[0], REFERENCE_SI[n], "table n={}", (n,)
    for n in range(1, max_n + 1):
        slow, witness = singer_height(n)
        values = [2**p + 1 for p in witness]
        valid = sum(witness) <= n and all(
            gcd(a, b) == 1 for a, b in combinations(values, 2)
        ) and len(witness) == slow
        yield (singer_height_fast(n)[0], valid), (slow, True), "fast-path n={} witness={}", (n, sorted(witness))
    for n in range(2, max_n + 1):
        prev = singer_height(n - 1)[0]
        yield prev, min(prev, singer_height(n)[0]), "monotone n={}", (n,)


def _si_notes(max_n: int) -> list[str]:
    return [
        f"reference table lists Si({n})={ref}; the subset search gives {singer_height(n)[0]} "
        f"(four pairwise-coprime parts need distinct 2-adic valuations, so the "
        f"minimal sum is 1+2+4+8=15); the search result is authoritative"
        for n, ref in REFERENCE_SI_CONTESTED.items()
        if n <= max_n and singer_height(n)[0] != ref
    ]


def _suite_m22(max_n: int):
    for n in range(1, max_n + 1):
        wn = fundamental(n, n)
        for w in _restricted_top(n):
            d = delta(w)
            zero = zero_in_weight_set(w)
            fast = [has_zero_weight(w), d % 2 == 0 and d > 2 * n - 1, dominates(w - wn, wn)]
            oracle = [zero] * 3
            if n <= 4:  # couple the membership identity and the a_n = 1 rule to their oracles
                sat, orbit = weight_set(w - wn), weyl_orbit(to_eps(wn))
                members = frozenset(sat)
                fast += [zero, "; ".join(map(str, weight_set(w).reps))]
                oracle += [any(-y in members for y in orbit), "; ".join(map(str, minkowski_sum(sat, orbit).reps))]
            yield tuple(fast), tuple(oracle), "n={} w={}", (n, w)


def _suite_ee3(max_n: int):
    for n in range(1, max_n + 1):
        shapes = enumerate_shapes(n)
        for w in _restricted(n):
            ws = weight_set(w)
            oracle = all(trivial_constituent(ws, sh) for sh in shapes)
            yield abelian_all(w).decision == YES, oracle, "n={} w={}", (n, w)


def _suite_s10(max_n: int):
    for n in range(1, max_n + 1):
        shapes = enumerate_shapes(n)
        for w in _restricted_top(n):
            ws = weight_set(w)
            for sh in shapes:
                fast = torus_trivial(w, sh).decision == YES
                yield fast, trivial_constituent(ws, sh), "n={} w={} torus={}", (n, w, sh)


def _suite_th2(max_n: int):
    """The closed form against direct evaluation at a generator of the Singer
    torus: w = low + 2 * high with restricted low and high, and as Frobenius
    twists act trivially, 1 is an eigenvalue iff r + s = 0 modulo o = 2^n + 1
    for residues r of L(low) and s of L(high).  Each restricted mu's residues
    are one o-bit mask, which `value_mask` reads at the Singer form
    (o, (1, 2, ..., 2^(n-1))); the zero weight's mask is 1.  A weight set is
    closed under negation (-1 lies in the Weyl group of C_n), so each mask
    equals its own negation, and the test is one AND of the two masks."""
    for n in range(1, max_n + 1):
        o = 2**n + 1
        singer = (o, tuple(1 << j for j in range(n)))
        masks = {(0,) * n: 1}  # restricted mu -> its residues
        for coeffs in product(range(4), repeat=n):
            w = Weight(coeffs)
            fast = singer_cycle_has_one(w)
            low, high = tuple(a & 1 for a in coeffs), tuple(a >> 1 for a in coeffs)
            for mu in (low, high):
                if mu not in masks:
                    masks[mu] = value_mask(weight_set(Weight(mu)), singer)
            yield fast, masks[low] & masks[high] != 0, "n={} w={}", (n, w)


def _element_forms(n: int):
    """Each element of rank n with its generator tuples us, in enumeration
    order, each paired with its canonical form.  The coefficients are built
    once per element: with M the element's order, a block (d, o) at the
    unit u takes `_coefficients(M, d, o, u)`, and a tuple's form is
    `_canonical(M, c)` of its blocks' coefficients c joined.  That is
    `zero_form(to_torus_element(g, us))`, the torus route the tests keep as
    this one's reference, without a torus built per tuple."""
    out = []
    for g in enumerate_elements(n):
        M = g.order
        at = [{u: _coefficients(M, d, o, u) for u in range(1, o + 1) if gcd(u, o) == 1} for d, o, _ in g.blocks]
        out.append((g, [(us, _canonical(M, sum(map(getitem, at, us), ()))) for us in generator_tuples(g)]))
    return out


def _suite_ff2(max_n: int):
    """The predicted eigenvalue orders of L(w_n) at each element against the
    orders realized over the w_n orbit at every generator tuple.  Those
    orders m / gcd(m, c . v) depend on the tuple's canonical form (m, c)
    only, as listed by `_element_forms`: the orbit of all sign vectors v
    absorbs its signs and order, so they are computed once per distinct
    form of a rank."""
    for n in range(1, max_n + 1):
        orbit = list(weyl_orbit(to_eps(fundamental(n, n))).member_coords())
        realized_at = {}  # canonical form -> the sorted orders realized over the orbit
        for g, forms in _element_forms(n):
            predicted = sorted(omega_n_eigenvalue_orders(g))
            for us, form in forms:
                realized = realized_at.get(form)
                if realized is None:
                    m, c = form
                    realized = realized_at[form] = sorted({m // gcd(m, sum(map(mul, c, v))) for v in orbit})
                yield predicted, realized, "n={} g={} u={}", (n, g, us)


def _element_vs_direct(max_n: int):
    """Closed-form per-element verdicts for top-coefficient weights against
    direct evaluation over every generator choice.  At each generator tuple
    the element's values are one linear form, whose canonical form
    `_element_forms` lists once per rank (ff2 reads the same list); whether
    some weight of L(w) vanishes there is the per-orbit zero test `zero_at`,
    which lists no member.  It is a function of (ws, form) alone, and the
    tuples of a rank share few forms (2^n of them at rank n), so each weight
    asks it once per distinct form and every tuple is compared with the
    answer for its own form."""
    for n in range(1, max_n + 1):
        elements = _element_forms(n)
        distinct = {form for _, forms in elements for _, form in forms}
        for w in _restricted_top(n):
            ws = weight_set(w)
            direct_at = {form: zero_at(ws, form) for form in distinct}
            for g, forms in elements:
                fast = element_has_one(w, g).decision == YES
                for us, form in forms:
                    yield fast, direct_at[form], "n={} w={} g={} u={}", (n, w, g, us)


def _unisingular_vs_sweeps(max_n: int):
    """Closed-form unisingularity against exhaustive torus sweeps."""
    for n in range(1, max_n + 1):
        shapes = enumerate_shapes(n)
        for w in _restricted(n):
            fast = unisingular(w).decision == YES
            ws = weight_set(w)
            yield fast, all(unisingular_on_torus(ws, sh) for sh in shapes), "n={} w={}", (n, w)


def check_element_vs_direct(max_n: int):
    """(cases, failures) of `_element_vs_direct`, fr1's element half."""
    return _tally(_element_vs_direct(max_n))


def check_unisingular_vs_sweeps(max_n: int):
    """(cases, failures) of `_unisingular_vs_sweeps`, fr1's sweep half."""
    return _tally(_unisingular_vs_sweeps(max_n))


def _suite_fr1(max_n: int):
    yield from _element_vs_direct(max_n)
    yield from _unisingular_vs_sweeps(max_n)


def _suite_th7(max_n: int):
    for n in range(1, max_n + 1):
        for w in dominant_weights_up_to(n, TH7_DELTA_CAP):
            kinds = [ModuleKind.WEYL]
            if w.is_restricted():
                kinds.append(ModuleKind.IRREDUCIBLE_2)
            for kind in kinds:
                for k in range(1, n + 1):
                    oracle = th7_blocks(w, [1] * k, kind)
                    yield delta(w) < k, oracle, "n={} w={} kind={} k={}", (n, w, kind.value, k)


def _suite_branching(max_n: int):
    for N in range(2, max_n + 1, 2):
        for k in range(1, N):
            lam = linear_fundamental(N, k)
            yield to_eps(restrict_to_c(lam)), eps_restrict(to_ambient_eps(lam)), "N={} lambda_{}", (N, k)
    for N in range(2, min(max_n, 10) + 1, 2):
        n = N // 2
        for k in range(1, N):
            expected = set(exterior_factors(k, n)) | ({zero_weight(n)} if k % 2 == 0 else set())
            found = {dominant_representative(eps_restrict(v)) for v in _exterior(N, k)}
            yield sorted(map(str, expected)), sorted(map(str, found)), "N={} k={}", (N, k)


def _suite_counterexamples(max_n: int):
    linear_cases = [
        # (ambient N, torus shape on the symplectic side, odd powers to check)
        (4, singer_shape(2), (1, 3)),
        (6, TorusShape(((3, 1),)), (1,)),
    ]
    for N, shape, powers in linear_cases:
        n = N // 2
        if n > max_n:
            continue
        o = factor_orders(shape)[0]
        for k in powers:
            # the exterior power has no zero value, and none of its factors a trivial constituent
            zero_hits = [v for v in _exterior(N, k) if block_sums(eps_restrict(v), shape)[0] == 0]
            yield [], zero_hits[:3], "N={} order={} exterior k={} direct", (N, o, k)
            bad = [
                str(f)
                for f in sorted(exterior_factors(k, n), key=lambda f: f.coeffs)
                if trivial_constituent(weight_set(f), shape)
            ]
            yield [], bad, "N={} order={} exterior k={} factors", (N, o, k)
    if max_n < 2:
        return
    # even-power control (rank 2): the second exterior power of the natural
    # module of SL_4(2) regains eigenvalue 1 through its trivial composition factors
    shape = singer_shape(2)
    control_hit = any(block_sums(eps_restrict(v), shape)[0] == 0 for v in _exterior(4, 2))
    yield True, control_hit, "N=4 order=5 exterior k=2 direct", ()
    # the nontrivial factor alone does not supply it, the 0-factor correction does
    found = trivial_constituent(weight_set(fundamental(2, 2)), shape)
    yield False, found, "N=4 order=5 exterior k=2 factor w_2", ()


# ---------------------------------------------------------------- driver

_SUITES = {
    "dominance": (_suite_dominance, 5),
    "si": (_suite_si, 24),
    "m22": (_suite_m22, 6),
    "ee3": (_suite_ee3, 4),
    "s10": (_suite_s10, 4),
    "th2": (_suite_th2, 6),
    "ff2": (_suite_ff2, 4),
    "fr1": (_suite_fr1, 4),
    "th7": (_suite_th7, 5),
    "branching": (_suite_branching, 12),
    "counterexamples": (_suite_counterexamples, 6),
}

# the suites whose lowest ranks hold no case: below this cap they would check nothing
_LOWEST_CAP = {"branching": 2, "counterexamples": 2}

SUITE_NAMES = list(_SUITES) + ["all"]


def run_suite(name: str, max_n: int | None = None) -> SuiteReport:
    """Run one named suite (or "all") up to the given rank cap, at most the
    suite's default cap.  A cap below 1, or below the lowest rank at which
    the suite (any suite, for "all") has a case, is a ValueError: it would
    check nothing and still pass."""
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    empty = [suite for suite in (_SUITES if name == "all" else (name,))
             if max_n is not None and max_n < _LOWEST_CAP.get(suite, 1)]
    if empty:
        raise ValueError(f"max_n {max_n} leaves {' and '.join(empty)} no case to check; "
                         f"it must be at least {max(_LOWEST_CAP[suite] for suite in empty)}")
    started = time.perf_counter()
    if name == "all":
        cases, failures, notes, caps = 0, [], [], []
        for suite in _SUITES:
            rep = run_suite(suite, max_n)
            cases += rep.cases
            caps.append(rep.max_n)
            failures.extend({**f, "input": f"{suite}: {f['input']}"} for f in rep.failures)
            notes.extend(f"{suite}: {note}" for note in rep.notes)
        return SuiteReport("all", max(caps), cases, failures, notes,
                           time.perf_counter() - started)
    fn, default_cap = _SUITES[name]
    cap = default_cap if max_n is None else min(default_cap, max_n)
    cases, failures = _tally(fn(cap))
    notes = _si_notes(cap) if name == "si" else []
    return SuiteReport(name, cap, cases, failures, notes, time.perf_counter() - started)
