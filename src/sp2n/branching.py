"""Restriction of linear-group weights to the symplectic subgroup.

For ambient rank N = 2n the first n epsilon coordinates restrict
identically and the last n restrict to the negatives in reverse order,
giving c'_i = c_i - c_{2n+1-i}.  On fundamental coefficients this is
b_i = a_i + a_{2n-i} for i < n and b_n = a_n.  Exterior powers of the
natural module break into symplectic composition factors whose highest
weights are read off the index range of the power.

Realness here means only the two sufficient order conditions implemented
below; full realness needs conjugacy machinery that is out of scope, so
the predicates are named by what they check.
"""

from math import gcd

from .arith import factorize, mult_order
from .weights import EpsWeight, Weight, _Value, fundamental


class LinearWeight(_Value):
    """Dominant weight of an ambient special linear group of rank N - 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(int(a) for a in coeffs)
        if len(coeffs) < 1:
            raise ValueError("need at least one coefficient")
        if any(a < 0 for a in coeffs):
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is LinearWeight else NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    @property
    def ambient(self) -> int:
        """The matrix size N; weights live on SL_N."""
        return len(self.coeffs) + 1

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.coeffs)


def linear_fundamental(N: int, i: int) -> LinearWeight:
    if not 1 <= i <= N - 1:
        raise ValueError(f"fundamental index {i} out of range for SL_{N}")
    return LinearWeight(tuple(1 if j == i else 0 for j in range(1, N)))


def to_ambient_eps(lam: LinearWeight) -> tuple[int, ...]:
    """Epsilon coordinates of lam in the ambient group: c_j = a_j + ... + a_{N-1}, c_N = 0."""
    acc = 0
    out = [0] * lam.ambient
    for j in range(lam.ambient - 2, -1, -1):
        acc += lam.coeffs[j]
        out[j] = acc
    return tuple(out)


def restrict_to_c(lam: LinearWeight) -> Weight:
    """Fundamental-basis restriction b_i = a_i + a_{2n-i}, b_n = a_n."""
    N = lam.ambient
    if N % 2 != 0:
        raise ValueError(f"ambient size must be even, got {N}")
    n = N // 2
    a = lam.coeffs
    return Weight(tuple(a[i - 1] + a[2 * n - i - 1] for i in range(1, n)) + (a[n - 1],))


def eps_restrict(coords) -> EpsWeight:
    """Epsilon-coordinate restriction c'_i = c_i - c_{2n+1-i} of a length-2n vector."""
    c = tuple(int(x) for x in coords)
    if len(c) % 2 != 0:
        raise ValueError(f"need an even number of coordinates, got {len(c)}")
    n = len(c) // 2
    return EpsWeight(tuple(c[i] - c[2 * n - 1 - i] for i in range(n)))


def exterior_factors(k: int, n: int) -> frozenset[Weight]:
    """Possible highest weights of symplectic composition factors of the
    k-th exterior power of the natural 2n-dimensional module."""
    if not 1 <= k <= 2 * n - 1:
        raise ValueError(f"exterior power index {k} out of range for 2n = {2 * n}")
    return frozenset(
        fundamental(n, j)
        for j in range(1, min(k, 2 * n - k) + 1)
        if (k - j) % 2 == 0
    )


def _check_order_and_field(o: int, q: int) -> None:
    """An element order o >= 1 coprime to a field size q that is a prime power, or ValueError."""
    if o < 1:
        raise ValueError(f"order must be positive, got {o}")
    if q < 2 or len(factorize(q)) != 1:
        raise ValueError(f"field size {q} is not a prime power")
    if gcd(o, q) != 1:
        raise ValueError(f"order {o} and field size {q} are not coprime")


def real_by_order_sl(o: int, q: int) -> bool:
    """True when o divides q^i + 1 for some i > 0 (a realness guarantee
    for elements of order o in even-dimensional linear groups).

    Closed form: -1 must be a power of q modulo o, which happens iff the
    multiplicative order t of q is even with q^(t/2) = -1, or o <= 2.
    """
    _check_order_and_field(o, q)
    if o <= 2:
        return True
    t = mult_order(q, o)
    return t % 2 == 0 and pow(q, t // 2, o) == o - 1


def real_by_order_su(o: int, q: int) -> bool:
    """True when o divides q^i - 1 for some odd i (the unitary analogue):
    equivalently the multiplicative order of q modulo o is odd."""
    _check_order_and_field(o, q)
    return mult_order(q, o) % 2 == 1


GUARANTEED_ONE = "guaranteed-one"
POSSIBLE_EXCEPTION = "possible-exception"


class RealElementVerdict(_Value):
    __slots__ = ("status", "citations")

    def __init__(self, status: str, citations: tuple[str, ...]):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "citations", citations)


def real_element_verdict(lam: LinearWeight) -> RealElementVerdict:
    """Eigenvalue-1 guarantee for real elements.

    The only weights left open are the twisted odd fundamentals (odd
    exterior powers of the natural module); twisted even fundamentals
    restrict through a radical weight and hence carry the zero weight.
    Odd ambient rank always guarantees eigenvalue 1.
    """
    N = lam.ambient
    if N % 2 == 1:
        return RealElementVerdict(GUARANTEED_ONE, ("Lem-hg5", "Cor-rq2"))
    nonzero = [(i, a) for i, a in enumerate(lam.coeffs, start=1) if a]
    if len(nonzero) == 1:
        i, a = nonzero[0]
        if a & (a - 1) == 0:  # a is a power of two: lam is a twisted fundamental
            if i % 2 == 1:
                return RealElementVerdict(POSSIBLE_EXCEPTION, ("Thm-th6", "Thm-th5"))
            return RealElementVerdict(GUARANTEED_ONE, ("Thm-th6", "Thm-th5", "Lem-ww1"))
    return RealElementVerdict(GUARANTEED_ONE, ("Thm-th6", "Thm-th5"))
