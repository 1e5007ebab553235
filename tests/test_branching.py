from itertools import combinations, product
from math import gcd

import pytest

from sp2n.branching import (
    GUARANTEED_ONE,
    POSSIBLE_EXCEPTION,
    LinearWeight,
    eps_restrict,
    exterior_factors,
    linear_fundamental,
    real_by_order_sl,
    real_by_order_su,
    real_element_verdict,
    restrict_to_c,
    to_ambient_eps,
)
from sp2n.weights import EpsWeight, Weight, dominant_representative, fundamental, to_eps, zero_weight


def test_restrict_to_c_examples():
    assert restrict_to_c(linear_fundamental(6, 1)) == fundamental(3, 1)
    assert restrict_to_c(linear_fundamental(6, 5)) == fundamental(3, 1)
    assert restrict_to_c(LinearWeight((1, 0, 0, 0, 1))) == Weight((2, 0, 0))
    with pytest.raises(ValueError):
        restrict_to_c(LinearWeight((1, 1)))  # odd ambient size


def test_eps_restrict_examples():
    assert eps_restrict((1, 0, 0, 0, 0, 0)) == EpsWeight((1, 0, 0))
    assert eps_restrict((0, 0, 0, 0, 0, 1)) == EpsWeight((-1, 0, 0))
    assert eps_restrict((1, 1, 1, 1, 1, 1)) == EpsWeight((0, 0, 0))
    with pytest.raises(ValueError):
        eps_restrict((1, 0, 0))


def test_restriction_commutes_with_eps_view():
    for N in range(2, 11, 2):
        for coeffs in product(range(3), repeat=N - 1):
            lam = LinearWeight(coeffs)
            assert to_eps(restrict_to_c(lam)) == eps_restrict(to_ambient_eps(lam)), lam


def test_exterior_factors_examples():
    assert exterior_factors(3, 3) == frozenset({fundamental(3, 1), fundamental(3, 3)})
    for n in range(1, 6):
        assert exterior_factors(1, n) == frozenset({fundamental(n, 1)})
    assert exterior_factors(2, 3) == frozenset({fundamental(3, 2)})
    with pytest.raises(ValueError):
        exterior_factors(6, 3)
    with pytest.raises(ValueError):
        exterior_factors(0, 3)


def test_exterior_factors_match_orbit_restriction():
    for N in range(2, 11, 2):
        n = N // 2
        for k in range(1, N):
            reps = set()
            for ones in combinations(range(N), k):
                v = tuple(1 if i in ones else 0 for i in range(N))
                reps.add(dominant_representative(eps_restrict(v)))
            expected = set(exterior_factors(k, n))
            if k % 2 == 0:
                expected.add(zero_weight(n))  # even powers acquire a trivial factor
            assert reps == expected, (N, k)


def test_fundamental_restriction_pins_ambient_weight():
    for N in range(2, 13, 2):
        n = N // 2
        for coeffs in product((0, 1), repeat=N - 1):
            lam = LinearWeight(coeffs)
            restricted = restrict_to_c(lam)
            if sum(restricted.coeffs) == 1 and max(restricted.coeffs) == 1:
                j = restricted.coeffs.index(1) + 1
                assert lam in (linear_fundamental(N, j), linear_fundamental(N, 2 * n - j)), lam


def test_odd_ambient_restriction_always_has_zero():
    # odd ambient size: dropping the unpaired coordinate, every fundamental
    # module restricts with the zero weight present
    for N in range(3, 10, 2):
        n = N - 1  # even; the symplectic side has rank n // 2
        half = n // 2
        for k in range(1, N):
            found = False
            for ones in combinations(range(N), k):
                v = [1 if i in ones else 0 for i in range(N)]
                restricted = tuple(v[i] - v[n - 1 - i] for i in range(half))
                if not any(restricted):
                    found = True
                    break
            assert found, (N, k)


def test_real_by_order_sl_examples():
    assert real_by_order_sl(5, 2)
    assert not real_by_order_sl(7, 2)
    assert real_by_order_sl(1, 2)
    with pytest.raises(ValueError):
        real_by_order_sl(6, 2)
    with pytest.raises(ValueError):
        real_by_order_sl(0, 2)
    for o, q in ((9, 1), (1, 0), (9, -1), (5, 6), (7, 12)):  # no field has q elements
        with pytest.raises(ValueError, match="not a prime power"):
            real_by_order_sl(o, q)
    assert real_by_order_sl(2, 9) and real_by_order_sl(5, 8)  # prime powers


def test_real_by_order_sl_brute_force():
    for q in (2, 3, 4):
        for o in range(1, 1001):
            if gcd(o, q) != 1:
                continue
            seen = False
            power = 1
            for _ in range(2 * _order(q, o)):
                power = power * q % o
                if (power + 1) % o == 0:
                    seen = True
                    break
            assert real_by_order_sl(o, q) == seen, (o, q)


def _order(q, o):
    if o == 1:
        return 1
    t, x = 1, q % o
    while x != 1:
        x = x * q % o
        t += 1
    return t


def test_real_by_order_su_examples():
    assert real_by_order_su(7, 2)
    assert not real_by_order_su(5, 2)
    assert real_by_order_su(1, 2)
    with pytest.raises(ValueError):
        real_by_order_su(4, 2)
    for o, q in ((9, 1), (1, 0), (9, -1), (5, 6), (7, 12)):  # no field has q elements
        with pytest.raises(ValueError, match="not a prime power"):
            real_by_order_su(o, q)
    assert real_by_order_su(7, 8) and not real_by_order_su(5, 9)  # prime powers


def test_real_by_order_su_brute_force():
    for q in (2, 3, 4):
        for o in range(1, 301):
            if gcd(o, q) != 1:
                continue
            t = _order(q, o)
            seen = any((pow(q, i, o) - 1) % o == 0 for i in range(1, 2 * t + 2, 2))
            assert real_by_order_su(o, q) == seen, (o, q)


def test_real_element_verdict_examples():
    assert real_element_verdict(linear_fundamental(4, 1)).status == POSSIBLE_EXCEPTION
    assert real_element_verdict(LinearWeight((1, 0, 0, 0, 1))).status == GUARANTEED_ONE
    assert real_element_verdict(linear_fundamental(6, 2)).status == GUARANTEED_ONE
    assert real_element_verdict(LinearWeight((4, 0, 0, 0, 0))).status == POSSIBLE_EXCEPTION
    assert real_element_verdict(LinearWeight((0, 0, 8, 0, 0))).status == POSSIBLE_EXCEPTION
    assert real_element_verdict(LinearWeight((3, 0, 0, 0, 0))).status == GUARANTEED_ONE
    assert real_element_verdict(LinearWeight((0,) * 5)).status == GUARANTEED_ONE
    # odd ambient size is always guaranteed
    assert real_element_verdict(LinearWeight((1, 0))).status == GUARANTEED_ONE
    assert real_element_verdict(LinearWeight((2, 0, 0, 0))).status == GUARANTEED_ONE


def test_exception_set_is_exactly_twisted_odd_fundamentals():
    for N in (4, 6):
        for coeffs in product(range(5), repeat=N - 1):
            lam = LinearWeight(coeffs)
            status = real_element_verdict(lam).status
            nonzero = [(i, a) for i, a in enumerate(coeffs, 1) if a]
            expected = (
                len(nonzero) == 1
                and nonzero[0][0] % 2 == 1
                and nonzero[0][1] & (nonzero[0][1] - 1) == 0
            )
            assert (status == POSSIBLE_EXCEPTION) == expected, lam
