"""Weight sets of irreducible 2-modular and Weyl modules of type C_n.

Only weight SETS are computed, never multiplicities: for a semisimple
group element the eigenvalues of a representation are exactly the values
of its weights, so eigenvalue-1 questions need sets only.

For a Weyl module, and for a 2-restricted irreducible with a_n = 0, the
weight set is the saturated set of the highest weight (union of orbits of
all subdominant weights).  With a_n = 1, L(w) = L(w - w_n) (x) L(w_n), and
a dominant mu with epsilon coordinates c is a weight iff w - w_n dominates
the orbit of x* (x*_i = c_i - 1 if c_i else 1): over the weights y in
{+-1}^n of L(w_n), |c_i - y_i| >= x*_i, with equality for some y.

Each weight set is a union of Weyl orbits (Humphreys, Introduction to Lie
Algebras and Representation Theory, 13.4), built as its orbits' sorted
epsilon magnitudes.  As x*_i = c_i + 1 mod 2, the x* sum has the parity of
delta(w - w_n), so the rule is that each prefix sum of the sorted x* is at
most that of eps(w - w_n) = eps(w) - 1.
"""

from enum import Enum
from functools import lru_cache
from itertools import accumulate
from operator import add, le

from .arith import charge
from .weights import Weight, WeightSet, delta, highest_weight, is_radical, magnitudes, orbits_below, same_rank, to_eps


class ModuleKind(Enum):
    IRREDUCIBLE_2 = "irr2"
    WEYL = "weyl"


def weight_set(w: Weight, kind: ModuleKind = ModuleKind.IRREDUCIBLE_2) -> WeightSet:
    """The set of weights of the module of highest weight w.

    Results are memoized per (coefficients, kind); correctness does not
    depend on the cache.
    """
    return _weight_set_cached(highest_weight(w, kind is ModuleKind.IRREDUCIBLE_2).coeffs, kind)


@lru_cache(maxsize=1024)  # a full verification run asks for about 313 distinct sets
def _weight_set_cached(coeffs: tuple[int, ...], kind: ModuleKind) -> WeightSet:
    w = Weight(coeffs)
    if kind is ModuleKind.WEYL or coeffs[-1] == 0:
        return WeightSet(w.rank, orbits_below(w))
    bound = list(accumulate(c - 1 for c in to_eps(w).coords))  # a_n = 1: the x* rule of the module docstring
    # mu is non-increasing, so its sorted x* is c - 1 for each c > 1, then 1 for each 0 and 0 for each 1
    return WeightSet(w.rank, (mu for mu in orbits_below(w) if all(map(le, accumulate(
        tuple(c - 1 for c in mu if c > 1) + (1,) * mu.count(0) + (0,) * mu.count(1)), bound))))


def minkowski_sum(a: WeightSet, b: WeightSet) -> WeightSet:
    """{x + y : x in a, y in b}, the oracle of the a_n = 1 rule: both sets are
    Weyl-stable, so the sum is the union of the orbits of r + y over the
    orbits r of one set and the members y of the other, whichever gives
    fewer pairs; raises WorkLimitError first if that is over WORK_LIMIT."""
    same_rank(a, b)
    if len(a.orbits) * b.size > len(b.orbits) * a.size:
        a, b = b, a
    charge(len(a.orbits) * b.size, "pairs of a Minkowski sum")
    members = list(b.member_coords())  # read once, not once per orbit
    return WeightSet(a.rank, {magnitudes(map(add, r, m)) for r in a.orbits for m in members})


def has_zero_weight(w: Weight, kind: ModuleKind = ModuleKind.IRREDUCIBLE_2) -> bool:
    """Closed form for membership of the zero weight.

    Weyl modules and a_n = 0 irreducibles: zero occurs iff w is radical.
    a_n = 1 irreducibles: zero occurs iff delta(w) is even and >= 2n.
    """
    highest_weight(w, kind is ModuleKind.IRREDUCIBLE_2)
    if kind is ModuleKind.WEYL or w.coeffs[-1] == 0:
        return is_radical(w)
    return delta(w) % 2 == 0 and delta(w) >= 2 * w.rank


def twist_decompose(w: Weight) -> list[tuple[int, Weight]]:
    """Coordinate-wise binary expansion w = sum of 2^level * mu_level.

    Each mu_level is 2-restricted and nonzero; the zero weight decomposes
    into the empty list.
    """
    top = max(highest_weight(w).coeffs)
    levels = (tuple(a >> level & 1 for a in w.coeffs) for level in range(top.bit_length()))
    return [(level, Weight(bits)) for level, bits in enumerate(levels) if any(bits)]


def g_effective_weight_set(w: Weight) -> WeightSet:
    """Weight set governing eigenvalues of the w-representation on the finite group.

    Frobenius twists act trivially on group elements defined over the prime
    field, so the tensor factors of the twist decomposition contribute their
    untwisted weight sets; the result is their Minkowski sum.  For the zero
    weight the set is {0}.
    """
    acc = WeightSet(w.rank, ((0,) * w.rank,))
    for _, mu in twist_decompose(w):
        acc = minkowski_sum(acc, weight_set(mu, ModuleKind.IRREDUCIBLE_2))
    return acc


def zero_in_weight_set(w: Weight, kind: ModuleKind = ModuleKind.IRREDUCIBLE_2) -> bool:
    """Exact membership of the zero weight: the zero orbit is one of the
    orbits of the weight set."""
    return (0,) * w.rank in weight_set(w, kind).orbits
