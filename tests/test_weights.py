import time
from itertools import accumulate, product
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2n import arith, weights
from sp2n.arith import WorkLimitError, partition_counts
from sp2n.weights import (
    EpsWeight,
    Weight,
    delta,
    dominant_below,
    dominant_representative,
    dominant_weights_up_to,
    dominates,
    dominates_oracle,
    from_eps,
    fundamental,
    gamma,
    is_radical,
    parse_weight,
    simple_root,
    to_eps,
    weyl_orbit,
    zero_weight,
)


def test_to_eps_examples():
    assert to_eps(fundamental(2, 2)) == EpsWeight((1, 1))
    assert to_eps(Weight((1, 1))) == EpsWeight((2, 1))
    assert to_eps(zero_weight(3)) == EpsWeight((0, 0, 0))


def test_from_eps_examples():
    assert from_eps(EpsWeight((1, 1))) == Weight((0, 1))
    assert from_eps(EpsWeight((1, 1, 1))) == Weight((0, 0, 1))
    assert from_eps(EpsWeight((2, 1))) == Weight((1, 1))


small_vectors = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*([st.integers(-3, 3)] * n))
)


@given(small_vectors)
def test_roundtrip(coeffs):
    w = Weight(coeffs)
    assert from_eps(to_eps(w)) == w
    e = EpsWeight(coeffs)
    assert to_eps(from_eps(e)) == e


def test_roundtrip_exhaustive():
    for n in range(1, 6):
        for coeffs in product(range(-3, 4), repeat=n):
            assert from_eps(to_eps(Weight(coeffs))).coeffs == coeffs
            assert to_eps(from_eps(EpsWeight(coeffs))).coords == coeffs


@given(small_vectors)
def test_delta_equals_eps_coordinate_sum(coeffs):
    w = Weight(coeffs)
    assert delta(w) == sum(to_eps(w).coords)
    assert gamma(w) == to_eps(w).coords[0]


def test_delta_gamma_on_simple_roots():
    for n in range(2, 6):
        for i in range(1, n + 1):
            alpha = from_eps(simple_root(n, i))
            assert delta(alpha) == (2 if i == n else 0)
        assert gamma(from_eps(simple_root(n, 1))) == 1
        for i in range(2, n):
            assert gamma(from_eps(simple_root(n, i))) == 0
        # the long root is 2w_n - 2w_{n-1}, so its coefficient sum vanishes
        assert gamma(from_eps(simple_root(n, n))) == 0
    assert delta(Weight((1, 1))) == 3
    assert gamma(zero_weight(4)) == 0


def test_is_radical():
    assert is_radical(fundamental(4, 2))
    assert not is_radical(fundamental(4, 1))
    assert is_radical(zero_weight(3))
    for n in range(1, 7):
        for i in range(1, n + 1):
            assert is_radical(fundamental(n, i)) == (i % 2 == 0)


def test_dominates_examples():
    assert dominates(fundamental(3, 3), fundamental(3, 1))
    assert not dominates(fundamental(2, 2), fundamental(2, 1))
    w = Weight((1, 2, 0))
    assert dominates(w, w)


def test_dominates_rank_mismatch():
    with pytest.raises(ValueError):
        dominates(fundamental(2, 1), fundamental(3, 1))


def test_dominates_agrees_with_search_oracle():
    for n in range(1, 5):
        pool = dominant_weights_up_to(n, 7)
        for hi in pool:
            for lo in pool:
                assert dominates(hi, lo) == dominates_oracle(hi, lo), (hi, lo)


_coefficient_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(*[st.tuples(*[st.integers(0, 6)] * n)] * 2))


def _reference_walk(hi, lo):
    # the subtraction walk the inverse Cartan matrix replaced, without its
    # table: prune a start from which zero is out of reach (a prefix sum of
    # eps(hi - lo) below zero, or an odd total), then subtract the first
    # simple root whose result passes the same rule, until zero
    def viable(v):
        sums = list(accumulate(v))
        return min(sums) >= 0 and sums[-1] % 2 == 0

    v = tuple(map(sub, to_eps(hi).coords, to_eps(lo).coords))
    if not viable(v):
        return False
    roots = [simple_root(hi.rank, i).coords for i in range(1, hi.rank + 1)]
    while any(v):
        v = next(c for c in (tuple(map(sub, v, r)) for r in roots) if viable(c))
    return True


@settings(deadline=None)
@given(_coefficient_pairs)
def test_dominates_matches_search_past_the_suite_cap(pair):
    # coefficients up to 6 at rank up to 8: delta up to 216, past the suite's cap of 12
    hi, lo = map(Weight, pair)
    assert dominates(hi, lo) == dominates_oracle(hi, lo) == _reference_walk(hi, lo)


def test_dominates_oracle_long_chain():
    # a long-root coordinate of 5,000, and half of 10,001
    assert dominates_oracle(Weight((10000,)), zero_weight(1))
    assert not dominates_oracle(Weight((10001,)), zero_weight(1))
    assert dominates_oracle(Weight((2_000_002,)), zero_weight(1))  # height 1,000,001


def test_dominates_oracle_work_is_counted_before_it_starts(monkeypatch):
    # inverting the Cartan matrix of rank 3 is charged 3^3 = 27 steps, once
    hi, lo = Weight((1, 0, 1)), zero_weight(3)
    weights._inverse_cartan.cache_clear()
    monkeypatch.setattr(arith, "WORK_LIMIT", 26)
    with pytest.raises(WorkLimitError, match="^27 elimination steps"):
        dominates_oracle(hi, lo)
    monkeypatch.setattr(arith, "WORK_LIMIT", 27)
    assert dominates_oracle(hi, lo) and not dominates_oracle(lo, hi)
    monkeypatch.setattr(arith, "WORK_LIMIT", 0)
    assert dominates_oracle(hi, lo)  # a rank already inverted charges nothing
    # two misses, the refusal and the one inversion; two hits, the calls after it
    assert weights._inverse_cartan.cache_info()[:2] == (2, 2)


def test_dominates_oracle_refuses_rank_above_100_fast():
    hi = Weight((1,) * 101)
    started = time.perf_counter()
    with pytest.raises(WorkLimitError):
        dominates_oracle(hi, zero_weight(101))
    assert time.perf_counter() - started < 0.1


def test_dominates_partial_order():
    for n in range(1, 6):
        pool = dominant_weights_up_to(n, 10)
        below = {w: [v for v in pool if dominates(w, v)] for w in pool}
        for w in pool:
            assert w in below[w]
        for w in pool:
            for v in below[w]:
                if w != v:
                    assert not dominates(v, w), (w, v)
                for u in below[v]:
                    assert dominates(w, u), (w, v, u)


def test_dominates_delta_step():
    for n in range(1, 5):
        pool = dominant_weights_up_to(n, 8)
        for hi in pool:
            for lo in pool:
                if dominates(hi, lo):
                    diff = delta(hi) - delta(lo)
                    assert diff >= 0 and diff % 2 == 0


def test_minimal_subdominants():
    # a radical nonzero dominant weight lies above w_2; a non-radical one above w_1
    for n in range(2, 6):
        for w in dominant_weights_up_to(n, 10):
            if is_radical(w) and not w.is_zero():
                assert dominates(w, fundamental(n, 2)), w
            if not is_radical(w):
                assert dominates(w, fundamental(n, 1)), w


def test_euclidean_subdominant_existence():
    # with delta = j + k*n (0 <= j < n), the weight j-th fundamental plus k
    # copies of the last one sits below
    for n in range(2, 6):
        for w in dominant_weights_up_to(n, 12):
            l = delta(w)
            k, j = divmod(l, n)
            target = k * fundamental(n, n)
            if j:
                target = target + fundamental(n, j)
            assert dominates(w, target), (w, target)


def test_dominant_below_examples():
    assert dominant_below(fundamental(2, 2)) == {fundamental(2, 2), zero_weight(2)}
    assert dominant_below(fundamental(2, 1)) == {fundamental(2, 1)}
    assert dominant_below(Weight((1, 1))) == {Weight((1, 1)), Weight((1, 0))}


def _dominant_brute(n, max_delta):
    # every coefficient string with delta at most max_delta, in product (lexicographic) order
    ranges = (range(max_delta // i + 1) for i in range(1, n + 1))
    return [w for w in map(Weight, product(*ranges)) if delta(w) <= max_delta]


def test_dominant_weights_up_to_matches_brute_force():
    for n in range(1, 7):
        for max_delta in range(11):
            assert dominant_weights_up_to(n, max_delta) == _dominant_brute(n, max_delta), (n, max_delta)


def test_dominant_below_matches_oracle_filter():
    for n in range(1, 7):
        pool = _dominant_brute(n, 10)
        for w in pool:
            expected = {mu for mu in pool if delta(mu) <= delta(w) and dominates_oracle(w, mu)}
            assert dominant_below(w) == expected, w


def test_dominant_below_rejects_non_dominant():
    with pytest.raises(ValueError):
        dominant_below(Weight((1, -1)))


def test_weyl_orbit_examples():
    orb = weyl_orbit(to_eps(fundamental(3, 1)))
    assert frozenset(orb) == {
        EpsWeight(v) for v in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    }
    for n in range(1, 6):
        assert len(weyl_orbit(to_eps(fundamental(n, n)))) == 2**n
    assert frozenset(weyl_orbit(EpsWeight((0, 0)))) == {EpsWeight((0, 0))}


def test_weyl_orbit_size_and_unique_dominant():
    import math

    for n in range(1, 5):
        for coords in product(range(-2, 3), repeat=n):
            orb = weyl_orbit(EpsWeight(coords))
            assert (2**n * math.factorial(n)) % len(orb) == 0
            doms = [m for m in orb if _sorted_desc(m)]
            assert len(doms) == 1
            assert len({dominant_representative(m) for m in orb}) == 1


def _sorted_desc(e):
    c = e.coords
    return all(c[i] >= c[i + 1] for i in range(len(c) - 1)) and c[-1] >= 0


def test_dominant_representative():
    assert dominant_representative(EpsWeight((-1, 0, 0))) == fundamental(3, 1)
    assert dominant_representative(EpsWeight((1, -2))) == Weight((1, 1))
    w = Weight((2, 0, 1))
    assert dominant_representative(to_eps(w)) == w


def test_dominant_representative_lies_in_orbit():
    for coords in product(range(-2, 3), repeat=3):
        e = EpsWeight(coords)
        rep = dominant_representative(e)
        assert to_eps(rep) in frozenset(weyl_orbit(e))


def test_dominant_members():
    ws = weyl_orbit(EpsWeight((2, 1)))
    assert ws.reps == (Weight((1, 1)),)


def test_parse_and_format():
    assert parse_weight("0,1,1") == Weight((0, 1, 1))
    assert parse_weight("e:2,1,0") == EpsWeight((2, 1, 0))
    assert str(Weight((0, 1))) == "0,1"
    assert str(EpsWeight((2, 1))) == "e:2,1"
    with pytest.raises(ValueError):
        parse_weight("1,a")


def test_saturated_sets_match_root_string_generation():
    # third oracle: generate the saturated set downward by root strings
    # (from a weight with i-th coefficient m > 0, the weights minus 1..m
    # copies of the i-th simple root all belong to the set)
    for n in range(1, 4):
        for w in dominant_weights_up_to(n, 6):
            generated = _string_closure(w)
            from_orbits = set()
            for mu in dominant_below(w):
                from_orbits |= frozenset(weyl_orbit(to_eps(mu)))
            assert generated == from_orbits, w


def test_dominant_weight_count_is_a_partition_count():
    # a weight with delta d is a partition of d into parts of size at most n
    for n in range(1, 7):
        for max_delta in range(21):
            assert len(dominant_weights_up_to(n, max_delta)) == sum(partition_counts(n, max_delta))


def _string_closure(w):
    roots = [simple_root(w.rank, i) for i in range(1, w.rank + 1)]
    seen = {to_eps(w)}
    frontier = [to_eps(w)]
    while frontier:
        e = frontier.pop()
        mu = from_eps(e)
        for i, alpha in enumerate(roots, start=1):
            m = mu.coeffs[i - 1]
            cur = e
            for _ in range(max(m, 0)):
                cur = EpsWeight(tuple(a - b for a, b in zip(cur.coords, alpha.coords)))
                if cur not in seen:
                    seen.add(cur)
                    frontier.append(cur)
    return seen
