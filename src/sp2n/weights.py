"""Weight-lattice combinatorics for root systems of type C_n.

A weight is an integer string (a_1, ..., a_n) over the fundamental basis.
The epsilon basis is the derived view with coordinates
c_j = a_j + a_{j+1} + ... + a_n, so that the j-th fundamental weight is
e_1 + ... + e_j.  The simple roots are e_i - e_{i+1} for i < n together
with the long root 2*e_n.  All arithmetic is exact (Python integers).

The closed-form dominance test (`dominates`) is a fast path; the
definition of record (`dominates_oracle`) solves for the coordinates of
hi - lo over the simple roots with the inverse Cartan matrix, and the two
are cross-checked exhaustively by the test suite.
Dominant weights are generated, never filtered: in epsilon coordinates they
are the partitions `arith.partitions_under` lists under prefix-sum bounds.
A `WeightSet` holds each Weyl orbit as such a partition: its sorted magnitudes.

The package's value types are plain `__slots__` classes on the shared base
`_Value` defined here (immutable, repr, pickling), which defines equality and
hash once for all of them: type-strict, over the field tuple.
"""

from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from operator import lt, mul, sub

from .arith import charge, partitions_under


class _Value:
    """An immutable value: each field a slot, set once by __init__ through
    object.__setattr__.  Equal when of one type with equal fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __reduce__(self):  # rebuilt by its constructor, for pickle and copy
        return type(self), self._fields()


class Weight(_Value):
    """Integer coefficients over the fundamental basis; rank = len(coeffs)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        if len(coeffs) < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.coeffs)

    def is_restricted(self) -> bool:
        """True when every coefficient lies in {0, 1}."""
        return all(a in (0, 1) for a in self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "Weight") -> "Weight":
        same_rank(self, other)
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        same_rank(self, other)
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coeffs))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.coeffs)


class EpsWeight(_Value):
    """Integer coordinates over the epsilon basis; rank = len(coords)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        coords = tuple(coords)
        if len(coords) < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "coords", coords)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: "EpsWeight") -> "EpsWeight":
        same_rank(self, other)
        return EpsWeight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "EpsWeight":
        return EpsWeight(tuple(-c for c in self.coords))

    def __str__(self) -> str:
        return "e:" + ",".join(str(c) for c in self.coords)


class WeightSet(_Value):
    """A finite union of Weyl orbits (signed permutations of epsilon coordinates)
    of one rank, each held by its sorted magnitudes (the epsilon coordinates of its
    dominant weight), in coefficient-string order.  Size and membership are answered
    per orbit; the members are generated only on request and held nowhere."""

    __slots__ = ("rank", "orbits")

    def __init__(self, rank: int, orbits: Iterable[tuple[int, ...]]):
        orbits = frozenset(map(tuple, orbits))
        for m in orbits:
            if len(m) != rank or not m or m[-1] < 0 or any(map(lt, m, m[1:])):
                raise ValueError(f"{m} are not the sorted magnitudes of a weight of rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "orbits", tuple(sorted(orbits, key=_coeffs)))

    @property
    def reps(self) -> tuple[Weight, ...]:  # the orbits' dominant weights, for display
        return tuple(Weight(_coeffs(m)) for m in self.orbits)

    @property
    def size(self) -> int:  # len() fails above sys.maxsize; this does not
        return sum(map(_orbit_size, self.orbits))

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[EpsWeight]:
        return map(EpsWeight, self.member_coords())

    def __contains__(self, item) -> bool:
        return isinstance(item, EpsWeight) and item.rank == self.rank and magnitudes(item.coords) in self.orbits

    def member_coords(self) -> Iterator[tuple[int, ...]]:
        """Every weight's epsilon coordinates, orbit by orbit, generated as consumed and kept nowhere."""
        for m in self.orbits:
            yield from _arrangements(m)


def same_rank(a, b) -> None:
    """The one rank rule: raises ValueError unless a and b have one rank."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")


def highest_weight(w: Weight, restricted: bool = False) -> Weight:
    """w, checked as a highest weight: the one place that raises ValueError
    when w is not dominant, or, with restricted, not 2-restricted."""
    if not w.is_dominant():
        raise ValueError(f"{w} is not dominant")
    if restricted and not w.is_restricted():
        raise ValueError(f"{w} is not 2-restricted")
    return w


def zero_weight(rank: int) -> Weight:
    return Weight((0,) * rank)


def fundamental(rank: int, i: int) -> Weight:
    """The i-th fundamental weight (1-based), as a coefficient string."""
    if not 1 <= i <= rank:
        raise ValueError(f"fundamental index {i} out of range for rank {rank}")
    return Weight(tuple(1 if j == i else 0 for j in range(1, rank + 1)))


def simple_root(rank: int, i: int) -> EpsWeight:
    """The i-th simple root in epsilon coordinates: e_i - e_{i+1}, or 2*e_n."""
    if not 1 <= i <= rank:
        raise ValueError(f"simple root index {i} out of range for rank {rank}")
    v = [0] * rank
    if i < rank:
        v[i - 1], v[i] = 1, -1
    else:
        v[rank - 1] = 2
    return EpsWeight(tuple(v))


def to_eps(w: Weight) -> EpsWeight:
    """Change of basis: c_j = a_j + a_{j+1} + ... + a_n."""
    return EpsWeight(tuple(accumulate(reversed(w.coeffs)))[::-1])


def from_eps(e: EpsWeight) -> Weight:
    """Inverse change of basis: a_i = c_i - c_{i+1} with c_{n+1} = 0."""
    return Weight(_coeffs(e.coords))


def _coeffs(coords: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, coords, coords[1:] + (0,)))


def magnitudes(coords: Iterable[int]) -> tuple[int, ...]:
    """The absolute values, largest first: the epsilon coordinates of the orbit's dominant weight."""
    return tuple(sorted(map(abs, coords), reverse=True))


def delta(w: Weight) -> int:
    """Sum of i * a_i; equivalently the sum of the epsilon coordinates."""
    return sum(i * a for i, a in enumerate(w.coeffs, start=1))


def gamma(w: Weight) -> int:
    """Sum of the fundamental coefficients a_i."""
    return sum(w.coeffs)


def is_radical(w: Weight) -> bool:
    """True when w lies in the root lattice, i.e. delta(w) is even."""
    return delta(w) % 2 == 0


def dominates(hi: Weight, lo: Weight) -> bool:
    """True when hi - lo is a nonnegative integer combination of simple roots.

    Closed form on the coefficient differences d_k = hi_k - lo_k, in one
    pass: the multiplicity of the i-th short simple root is the prefix sum
    P_i = P_{i-1} + e_i of the epsilon coordinates e_i = d_i + ... + d_n,
    and that of the long root is P_n / 2 (half of delta(hi) - delta(lo));
    all must be nonnegative integers.
    """
    if len(hi.coeffs) != len(lo.coeffs):
        same_rank(hi, lo)
    e = sum(hi.coeffs) - sum(lo.coeffs)  # e_1
    p = 0
    for a, b in zip(hi.coeffs, lo.coeffs):
        p += e
        if p < 0:
            return False
        e -= a - b
    return p % 2 == 0


@lru_cache(maxsize=16)
def _inverse_cartan(rank: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det A, the columns of adj A) for the Cartan matrix
    A_ij = 2(a_i . a_j)/(a_j . a_j) of the simple roots a_i, so that
    A^-1 = adj A / det A.  Row i of A is the coefficient string of a_i, and
    the quotients are integers, as for any root system.  Fraction-free
    Gauss-Jordan elimination (Bareiss): every division is exact, every pivot
    a leading principal minor of A, positive as A is a positive diagonal
    rescaling of the simple roots' Gram matrix, and each diagonal entry of the
    left block ends as det A.  WorkLimitError is raised before it starts when
    its rank^3 steps are more than WORK_LIMIT."""
    charge(rank**3, f"elimination steps inverting the Cartan matrix of rank {rank}")
    roots = [simple_root(rank, i).coords for i in range(1, rank + 1)]
    gram = [[sum(map(mul, a, b)) for b in roots] for a in roots]
    m = [[2 * g[j] // gram[j][j] for j in range(rank)] + [int(i == j) for j in range(rank)] for i, g in enumerate(gram)]
    pivot = 1
    for k in range(rank):
        row = m[k]
        m = [r if r is row else [(row[k] * x - r[k] * y) // pivot for x, y in zip(r, row)] for r in m]
        pivot = row[k]
    return pivot, tuple(zip(*(r[rank:] for r in m)))


def dominates_oracle(hi: Weight, lo: Weight) -> bool:
    """Decide hi - lo in R+ by the definition: the simple roots are a basis,
    so hi - lo has one coordinate vector over them, the coefficient string
    d = hi - lo times the inverse Cartan matrix (Humphreys, Introduction to
    Lie Algebras and Representation Theory, 13.1), and every coordinate must
    be a nonnegative integer.  It shares no step with `dominates`.  The
    inverse costs rank^3 steps, charged once per rank (see `_inverse_cartan`)
    and refused above rank 100; a rank already inverted costs nothing, and
    each pair then answers in rank^2 integer steps."""
    if len(hi.coeffs) != len(lo.coeffs):
        same_rank(hi, lo)
    det, adj = _inverse_cartan(len(hi.coeffs))
    d = tuple(map(sub, hi.coeffs, lo.coeffs))
    for col in adj:
        c = sum(map(mul, d, col))  # det times a coordinate
        if c < 0 or c % det:
            return False
    return True


def dominant_weights_up_to(rank: int, max_delta: int) -> list[Weight]:
    """All dominant weights of the given rank with delta at most max_delta, by coefficient string."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return sorted((from_eps(EpsWeight(mu)) for mu in partitions_under((max_delta,) * rank)), key=lambda w: w.coeffs)


def orbits_below(w: Weight) -> Iterator[tuple[int, ...]]:
    """The epsilon coordinates of every dominant mu with dominates(w, mu), w included, generated:
    the partitions under the prefix sums of eps(w) with the parity of delta(w)."""
    parity = delta(highest_weight(w)) % 2
    return (mu for mu in partitions_under(list(accumulate(to_eps(w).coords))) if sum(mu) % 2 == parity)


def dominant_below(w: Weight) -> frozenset[Weight]:
    """All dominant weights mu with dominates(w, mu), including w itself."""
    return frozenset(Weight(_coeffs(mu)) for mu in orbits_below(w))


def weyl_orbit(e: EpsWeight) -> WeightSet:
    """The orbit of e under coordinate permutations and sign flips."""
    return WeightSet(e.rank, (magnitudes(e.coords),))


def dominant_representative(e: EpsWeight) -> Weight:
    """The unique dominant weight in the orbit of e under permutations and sign flips."""
    return Weight(_coeffs(magnitudes(e.coords)))


def _orbit_size(mags: tuple[int, ...]) -> int:
    """2^(nonzero magnitudes) * n! / prod(m_i!) over the multiplicities m_i of the magnitudes."""
    return 2 ** (len(mags) - mags.count(0)) * factorial(len(mags)) // prod(map(factorial, Counter(mags).values()))


def _arrangements(mags: tuple[int, ...]):
    """Each signed arrangement of the sorted magnitudes mags, once."""
    if not mags:
        yield ()
    for i, v in enumerate(mags):
        if i and mags[i - 1] == v:
            continue  # equal magnitudes give equal arrangements
        for rest in _arrangements(mags[:i] + mags[i + 1:]):
            yield (v,) + rest
            if v:
                yield (-v,) + rest


def parse_weight(text: str) -> Weight | EpsWeight:
    """Parse "a1,a2,..." as a Weight or "e:c1,c2,..." as an EpsWeight."""
    body = text.strip()
    eps = body.startswith("e:")
    if eps:
        body = body[2:]
    try:
        values = tuple(int(part) for part in body.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}") from exc
    return EpsWeight(values) if eps else Weight(values)
