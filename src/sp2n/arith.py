"""Small exact integer helpers: multiplicative orders, trial-division
factoring, the totient and partition counts that size enumerations, and
the generators of partitions (every dominant-weight enumeration) and of
block multisets (the torus classes and the semisimple elements)."""

from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, combinations_with_replacement, product
from math import comb, gcd, isqrt, prod

WORK_LIMIT = 10**6  # most steps of any enumeration whose size comes from the input
FACTOR_BOUND = 10**6  # largest trial divisor


class WorkLimitError(RuntimeError):
    """Raised by `charge` when an enumeration would take, or has so far taken,
    more than WORK_LIMIT steps."""


def charge(count: int, what: str) -> None:
    """The one work check: raises WorkLimitError when count, the steps an
    enumeration will take or the running tally of those it has taken, is
    more than WORK_LIMIT."""
    if count > WORK_LIMIT:
        raise WorkLimitError(f"{count} {what} exceed the work limit {WORK_LIMIT}")


def refuse_too_deep(what: str):
    """Raise WorkLimitError for a recursion over `what` that went deeper than
    the interpreter's recursion limit (the caller's RecursionError)."""
    raise WorkLimitError(f"{what} recurse deeper than the interpreter allows, past the work limit")


def mult_order(a: int, m: int) -> int:
    """Multiplicative order of a modulo m.  Requires gcd(a, m) == 1.

    Starts from phi(m) and divides out each prime p while a^(t/p) = 1
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.4.3).
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    t = totient(m)
    for p in factorize(t):
        while t % p == 0 and pow(a, t // p, m) == 1:
            t //= p
    return t


def has_order(a: int, m: int, t: int) -> bool:
    """Whether a has multiplicative order exactly t modulo m; factors only t."""
    return pow(a, t, m) == 1 % m and all(pow(a, t // p, m) != 1 % m for p in factorize(t))


def totient(m: int) -> int:
    """Euler's phi(m): the number of units modulo m."""
    return prod((p - 1) * p ** (e - 1) for p, e in factorize(m).items())


def partition_counts(max_part: int, total: int) -> list[int]:
    """p[d] = number of partitions of d into parts of size at most max_part, d = 0..total.
    Raises WorkLimitError as soon as the partitions counted so far exceed
    WORK_LIMIT: the total + 1 into ones before the list of total + 1 counts is
    made, then sum(p) after each part size, a lower bound of the final sum."""
    what = f"partitions of sum <= {total}"
    charge(total + 1, what)
    p = [1] + [0] * total
    for k in range(1, min(max_part, total) + 1):  # a larger part fits no sum up to total
        for d in range(k, total + 1):
            p[d] += p[d - k]
        charge(sum(p), what)
    return p


def partitions_under(bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The non-increasing nonnegative tuples of length len(bounds) whose i-th prefix
    sum is at most bounds[i], in reverse-lexicographic order.  Each step yields a
    tuple (a zero part ends one), so the work follows the output.  Raises
    WorkLimitError first when the partitions into len(bounds) parts with sum at
    most bounds[-1], a superset of the output, exceed WORK_LIMIT."""
    n = len(bounds)
    partition_counts(n, bounds[-1])  # charges that superset as it counts it
    caps = list(accumulate(reversed(bounds), min))[::-1]  # prefix sums never decrease
    parts = [0] * n

    def rec(i: int, total: int, largest: int) -> Iterator[tuple[int, ...]]:
        for x in range(min(largest, caps[i] - total), -1, -1):
            parts[i] = x
            if x and i + 1 < n:
                yield from rec(i + 1, total + x, x)
            else:
                yield tuple(parts[:i + 1]) + (0,) * (n - i - 1)

    return rec(0, 0, caps[0])


def block_multisets(n: int, blocks_of: Callable[[int], Sequence[tuple]]) -> Iterator[tuple]:
    """Each multiset of blocks with sizes summing to n, blocks_of(k) listing
    those of size k, once, as one tuple: partition by partition in
    `partitions_under` order, sizes largest first, each size's blocks picked
    with repetition.  Before yielding, charges the multisets, the x^n
    coefficient of prod_k (1 - x^k)^(-len(blocks_of(k))), as it counts them:
    first those of size-1 blocks alone, before any list sized by n is made,
    then the count so far after each block, a lower bound until the last."""
    what = f"block multisets of rank {n}"
    blocks = {1: blocks_of(1)}
    charge(comb(n + len(blocks[1]) - 1, n), what)
    count = [1] + [0] * n
    for k in range(1, n + 1):
        if k > 1:
            blocks[k] = blocks_of(k)
        for _ in blocks[k]:
            for d in range(k, n + 1):
                count[d] += count[d - k]
            charge(count[n], what)
    for parts in partitions_under((n,) * n):
        if sum(parts) == n:
            picks = (combinations_with_replacement(blocks[k], parts.count(k)) for k in dict.fromkeys(parts) if k)
            yield from (sum(pick, ()) for pick in product(*picks))


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division with divisors up to FACTOR_BOUND.

    Raises ValueError when the input cannot be certified within the bound,
    rather than returning a partial answer.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    out: dict[int, int] = {}
    rest = m
    p = 2
    while p <= FACTOR_BOUND and p * p <= rest:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        if rest > FACTOR_BOUND * FACTOR_BOUND and isqrt(rest) > FACTOR_BOUND:
            raise ValueError(f"{m} exceeds the factorization bound {FACTOR_BOUND}")
        out[rest] = out.get(rest, 0) + 1
    return out


def divisors(m: int) -> list[int]:
    """Sorted list of positive divisors of m."""
    divs = [1]
    for p, e in factorize(m).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
