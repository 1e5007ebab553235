from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp2n.reps
from sp2n.reps import (
    ModuleKind,
    g_effective_weight_set,
    has_zero_weight,
    minkowski_sum,
    twist_decompose,
    weight_set,
    zero_in_weight_set,
)
from sp2n.weights import (
    EpsWeight,
    Weight,
    WeightSet,
    delta,
    dominates,
    fundamental,
    magnitudes,
    to_eps,
    weyl_orbit,
    zero_weight,
)

IRR2 = ModuleKind.IRREDUCIBLE_2
WEYL = ModuleKind.WEYL

TWELVE = {
    EpsWeight(v)
    for v in [
        (2, 1), (2, -1), (-2, 1), (-2, -1),
        (1, 2), (1, -2), (-1, 2), (-1, -2),
        (1, 0), (-1, 0), (0, 1), (0, -1),
    ]
}


def _restricted(n):
    return (Weight(bits) for bits in product((0, 1), repeat=n))


def test_weight_set_examples():
    ws = weight_set(fundamental(2, 2), IRR2)
    assert frozenset(ws) == {EpsWeight((s1, s2)) for s1 in (1, -1) for s2 in (1, -1)}
    assert zero_weight(2) not in ws.reps

    assert frozenset(weight_set(Weight((1, 1)), IRR2)) == TWELVE

    weyl = weight_set(fundamental(2, 2), WEYL)
    assert len(weyl) == 5
    assert zero_weight(2) in weyl.reps


def test_weight_set_validation():
    with pytest.raises(ValueError):
        weight_set(Weight((2, 0)), IRR2)
    with pytest.raises(ValueError):
        weight_set(Weight((-1, 0)), WEYL)
    weight_set(Weight((2, 0)), WEYL)  # any dominant weight is fine for Weyl


def test_minkowski_examples():
    a = weyl_orbit(to_eps(fundamental(2, 1)))
    b = weyl_orbit(to_eps(fundamental(2, 2)))
    zero = WeightSet(2, ((0, 0),))
    assert frozenset(minkowski_sum(zero, a)) == frozenset(a)
    assert frozenset(minkowski_sum(a, b)) == TWELVE
    assert frozenset(minkowski_sum(a, b)) == frozenset(minkowski_sum(b, a))
    with pytest.raises(ValueError):
        minkowski_sum(a, weyl_orbit(EpsWeight((1, 0, 0))))


def _orbit_unions(n):
    # a weight set is a union of orbits: draw vectors, keep their orbits
    vec = st.tuples(*([st.integers(-2, 2)] * n))
    return st.frozensets(vec.map(EpsWeight), min_size=1, max_size=4).map(
        lambda ms: WeightSet(n, {magnitudes(m.coords) for m in ms})
    )


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_orbit_unions(n), _orbit_unions(n), _orbit_unions(n))))
def test_minkowski_algebra(abc):
    a, b, c = abc
    orbit = weyl_orbit(to_eps(b.reps[-1]))  # the explicit sum, against one orbit of b
    assert frozenset(minkowski_sum(a, orbit)) == {
        EpsWeight(tuple(x + y for x, y in zip(p.coords, q.coords))) for p in a for q in orbit
    }
    ab = minkowski_sum(a, b)
    assert ab == minkowski_sum(b, a)
    left = minkowski_sum(ab, c)
    right = minkowski_sum(a, minkowski_sum(b, c))
    assert left == right
    assert len(ab) <= len(a) * len(b)


def test_has_zero_weight_examples():
    assert has_zero_weight(Weight((1, 1, 1)), IRR2)
    assert not has_zero_weight(Weight((0, 0, 1)), IRR2)
    assert has_zero_weight(Weight((0, 1, 0)), IRR2)


def test_has_zero_weight_matches_membership():
    for n in range(1, 5):
        for w in _restricted(n):
            for kind in (IRR2, WEYL):
                closed = has_zero_weight(w, kind)
                assert closed == (zero_weight(n) in weight_set(w, kind).reps), (w, kind)
                assert closed == zero_in_weight_set(w, kind), (w, kind)


def test_twist_decompose_examples():
    assert twist_decompose(Weight((2, 0))) == [(1, Weight((1, 0)))]
    assert twist_decompose(Weight((3, 1))) == [(0, Weight((1, 1))), (1, Weight((1, 0)))]
    assert twist_decompose(Weight((1, 0))) == [(0, Weight((1, 0)))]
    assert twist_decompose(zero_weight(3)) == []
    with pytest.raises(ValueError):
        twist_decompose(Weight((-1, 2)))


def test_twist_decompose_reconstructs():
    for coeffs in product(range(6), repeat=3):
        w = Weight(coeffs)
        acc = zero_weight(3)
        for level, mu in twist_decompose(w):
            assert mu.is_restricted() and not mu.is_zero()
            acc = acc + (2**level) * mu
        assert acc == w


@given(st.lists(st.integers(0, 2**12), min_size=1, max_size=8))
def test_twist_decompose_levels_rebuild_the_weight(coeffs):
    w = Weight(coeffs)
    parts = twist_decompose(w)
    levels = [level for level, _ in parts]
    assert levels == sorted(set(levels))
    assert all(mu.rank == w.rank and mu.is_restricted() and not mu.is_zero() for _, mu in parts)
    acc = zero_weight(w.rank)
    for level, mu in parts:
        acc = acc + (2**level) * mu
    assert acc == w


def test_g_effective_examples():
    assert frozenset(g_effective_weight_set(Weight((0, 2)))) == frozenset(weight_set(fundamental(2, 2)))
    assert frozenset(g_effective_weight_set(Weight((1, 1)))) == TWELVE
    assert frozenset(g_effective_weight_set(zero_weight(2))) == {EpsWeight((0, 0))}
    for w in _restricted(3):
        assert frozenset(g_effective_weight_set(w)) == frozenset(weight_set(w))


def _weyl_closed(ws):
    members = frozenset(ws)
    n = ws.rank
    for m in members:
        c = m.coords
        if EpsWeight(tuple(-x for x in c)) not in members:
            return False
        if EpsWeight((c[0] * -1,) + c[1:]) not in members:
            return False
        for i in range(n - 1):  # adjacent transpositions generate the permutations
            swapped = list(c)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if EpsWeight(tuple(swapped)) not in members:
                return False
    return True


def test_weight_sets_are_weyl_closed():
    for n in range(1, 6):
        for w in _restricted(n):
            assert _weyl_closed(weight_set(w, IRR2)), w
    assert _weyl_closed(weight_set(Weight((2, 1)), WEYL))


def test_additivity_for_restricted_sums():
    # disjointly supported restricted weights: the set of the sum is the
    # Minkowski sum of the sets
    for n in range(1, 5):
        for split in product((0, 1, 2), repeat=n):
            lam = Weight(tuple(1 if s == 1 else 0 for s in split))
            om = Weight(tuple(1 if s == 2 else 0 for s in split))
            both = lam + om
            assert frozenset(weight_set(both, IRR2)) == frozenset(minkowski_sum(
                weight_set(lam, IRR2), weight_set(om, IRR2)
            )), (lam, om)


def _top_restricted(max_n):
    for n in range(1, max_n + 1):
        for bits in product((0, 1), repeat=n - 1):
            yield Weight(bits + (1,))


def test_top_weight_sets_match_tensor_sums():
    # the a_n = 1 rule against its oracle, L(w - w_n) (x) L(w_n) as a Minkowski sum
    for w in _top_restricted(7):
        wn = fundamental(w.rank, w.rank)
        assert weight_set(w, IRR2).reps == minkowski_sum(
            weight_set(w - wn, IRR2), weyl_orbit(to_eps(wn))).reps, w


def test_top_weight_sets_build_without_minkowski_sums(monkeypatch):
    def refuse(a, b):
        raise AssertionError("minkowski_sum called")

    monkeypatch.setattr(sp2n.reps, "minkowski_sum", refuse)
    sp2n.reps._weight_set_cached.cache_clear()
    for w in _top_restricted(7):
        assert weight_set(w, IRR2).reps, w


def test_top_weight_sets_build_one_weight_each(monkeypatch):
    # a work pin: the build filters epsilon tuples, and its highest weight is
    # the one Weight it makes (a per-candidate conversion would make thousands)
    tops = [Weight(bits + (1,)) for bits in product((0, 1), repeat=5)]
    made, real = [], Weight.__init__

    def counted(self, coeffs):
        real(self, coeffs)
        made.append(self.coeffs)

    sp2n.reps._weight_set_cached.cache_clear()
    monkeypatch.setattr(Weight, "__init__", counted)
    for w in tops:
        assert len(weight_set(w, IRR2)) > 0, w
    assert len(made) <= len(tops), made[:3]


def test_zero_weight_three_way_equivalence():
    for n in range(1, 7):
        wn = fundamental(n, n)
        for bits in product((0, 1), repeat=n - 1):
            w = Weight(bits + (1,))
            d = delta(w)
            zero = zero_in_weight_set(w, IRR2)
            assert zero == (d % 2 == 0 and d > 2 * n - 1), w
            assert zero == dominates(w - wn, wn), w


def test_even_fundamentals_appear_alongside_zero():
    for n in range(1, 6):
        for bits in product((0, 1), repeat=n - 1):
            w = Weight(bits + (1,))
            ws = weight_set(w, IRR2)
            if zero_weight(n) in ws.reps:
                for i in range(2, n + 1, 2):
                    assert to_eps(fundamental(n, i)) in frozenset(ws), (w, i)


def test_high_delta_top_weights():
    # top coefficient set with delta >= 2n: radical case has the zero
    # weight, otherwise specific small weights appear
    for n in range(2, 6):
        for bits in product((0, 1), repeat=n - 1):
            w = Weight(bits + (1,))
            if delta(w) < 2 * n:
                continue
            ws = weight_set(w, IRR2)
            if delta(w) % 2 == 0:
                assert zero_weight(n) in ws.reps
            else:
                assert to_eps(fundamental(n, 1)) in frozenset(ws)
                assert EpsWeight((2, 1) + (0,) * (n - 2)) in frozenset(ws)
                assert EpsWeight((3,) + (0,) * (n - 1)) in frozenset(ws)
                if n > 2:
                    assert to_eps(fundamental(n, 3)) in frozenset(ws)


def test_weyl_contains_irreducible():
    for n in range(1, 6):
        for w in _restricted(n):
            assert frozenset(weight_set(w, IRR2)) <= frozenset(weight_set(w, WEYL)), w
