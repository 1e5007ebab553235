from itertools import accumulate, product
from math import gcd
from pathlib import Path

import pytest

import sp2n.arith
from sp2n.arith import WORK_LIMIT, WorkLimitError, block_multisets, charge, has_order, mult_order, partition_counts, partitions_under, totient


def _mult_order_scan(a, m):
    # the reference: the first t with a^t = 1 modulo m
    t, x = 1, a % m
    while x != 1 % m:
        x = x * a % m
        t += 1
    return t


def test_mult_order_matches_linear_scan():
    for m in range(1, 2001):
        for a in (2, 3, 5):
            if gcd(a, m) == 1:
                t = _mult_order_scan(a, m)
                assert mult_order(a, m) == t, (a, m)
                assert has_order(a, m, t), (a, m)
                assert t == 1 or not has_order(a, m, 2 * t), (a, m)


def test_mult_order_validation():
    with pytest.raises(ValueError):
        mult_order(2, 0)
    with pytest.raises(ValueError):
        mult_order(2, 6)
    # phi(m) of a product of two primes above the factor bound cannot be found
    with pytest.raises(ValueError):
        mult_order(2, 1000003 * 1000033)


def test_mult_order_large_prime():
    assert mult_order(2, 10**9 + 7) == 500000003


def test_totient_counts_units():
    for m in range(1, 500):
        assert totient(m) == sum(1 for u in range(1, m + 1) if gcd(u, m) == 1), m


def test_partition_counts():
    assert partition_counts(10, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_counts(2, 6) == [1, 1, 2, 2, 3, 3, 4]
    assert partition_counts(1, 3) == [1, 1, 1, 1]


def _partitions_brute(bounds):
    # every non-increasing tuple over 0..max(bounds) within the prefix-sum bounds, largest first
    n = len(bounds)
    return sorted(
        (t for t in product(range(max(max(bounds), 0) + 1), repeat=n)
         if all(t[i] >= t[i + 1] for i in range(n - 1))
         and all(s <= b for s, b in zip(accumulate(t), bounds))),
        reverse=True,
    )


def test_partitions_under_matches_brute_force():
    # bounds of every shape, negative and decreasing ones included
    for n in range(1, 5):
        for bounds in product(range(-1, 5 if n < 4 else 4), repeat=n):
            assert list(partitions_under(bounds)) == _partitions_brute(bounds), bounds


def test_partitions_under_work_is_counted_before_it_starts(monkeypatch):
    bounds = (6, 6, 6, 6)
    size = sum(partition_counts(4, 6))  # here every counted partition is yielded
    assert len(list(partitions_under(bounds))) == size
    monkeypatch.setattr(sp2n.arith, "WORK_LIMIT", size - 1)
    with pytest.raises(WorkLimitError):
        partitions_under(bounds)  # raised at the call, before any tuple is made
    monkeypatch.setattr(sp2n.arith, "WORK_LIMIT", size)
    assert len(list(partitions_under(bounds))) == size


def test_charge_refuses_only_above_the_limit():
    charge(WORK_LIMIT, "steps")
    with pytest.raises(WorkLimitError, match=f"^{WORK_LIMIT + 1} steps exceed the work limit {WORK_LIMIT}$"):
        charge(WORK_LIMIT + 1, "steps")


def test_charge_is_the_only_raise_of_the_work_limit():
    # every work bound goes through arith.charge
    package = Path(sp2n.arith.__file__).parent
    raising = [p.name for p in sorted(package.glob("*.py")) if "raise WorkLimitError" in p.read_text()]
    assert raising == ["arith.py"]


def _partitions_of(n, max_part):
    # the partitions of n with parts at most max_part, largest part first, largest partition first
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, max_part), 0, -1) for rest in _partitions_of(n - k, k)]


def test_block_multisets_one_block_per_size_are_the_partitions():
    for n in range(1, 12):
        out = list(block_multisets(n, lambda k: ((k,),)))
        assert [tuple(k for (k,) in m) for m in out] == _partitions_of(n, n), n
        assert len(out) == partition_counts(n, n)[n]


def test_block_multisets_refuse_before_listing_larger_blocks():
    listed = []

    def blocks_of(k):
        listed.append(k)
        return [(k, i) for i in range(k)]

    with pytest.raises(WorkLimitError):
        next(block_multisets(60, blocks_of))
    assert max(listed) < 60  # refused on a lower bound, before every size is listed


def test_counts_refuse_before_a_list_sized_by_the_input():
    # the first partial count is charged before the table of n + 1 counts is made
    listed = []
    with pytest.raises(WorkLimitError, match="^10000001 block multisets of rank 10000000 "):
        next(block_multisets(10**7, lambda k: listed.append(k) or ((k, -1), (k, 1))))
    assert listed == [1]
    with pytest.raises(WorkLimitError, match="^10000001 partitions of sum <= 10000000 "):
        partition_counts(2, 10**7)
    # later partial counts are charged as they grow: two passes of 6,000, not 6,000 passes
    with pytest.raises(WorkLimitError, match="^9003000 partitions of sum <= 5999 "):
        partition_counts(6000, 5999)
