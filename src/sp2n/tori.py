"""Maximal tori of Sp_2n(2) as signed partitions, and weight restriction.

A torus shape is a list of blocks (k, sign) with cyclic factor order
2^k - sign; sign -1 marks a block acting irreducibly (a Singer factor).
On the canonical diagonal form of a block the epsilon coordinate at
offset j evaluates on the block generator as zeta^(2^j), so a weight
restricts to a block as the residue sum(c_j * 2^j) modulo the factor
order.  All wrap-around relations are automatic in the modular
arithmetic.  `residues` is the one engine evaluating weight sets on tori
and their elements; it works orbit by orbit and lists no orbit.
"""

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm, prod

from .arith import WORK_LIMIT, WorkLimitError, partition_counts, partitions_under
from .weights import EpsWeight, WeightSet, to_eps


@dataclass(frozen=True)
class TorusShape:
    """Signed partition (k_i, sign_i); blocks kept in canonical order."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = tuple((int(k), int(s)) for k, s in self.blocks)
        for k, s in blocks:
            if k < 1:
                raise ValueError(f"block rank must be positive, got {k}")
            if s not in (1, -1):
                raise ValueError(f"block sign must be +1 or -1, got {s}")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=lambda b: (-b[0], b[1]))))

    @property
    def rank(self) -> int:
        return sum(k for k, _ in self.blocks)

    def __str__(self) -> str:
        return ",".join(str(s * k) for k, s in self.blocks)


@dataclass(frozen=True)
class TorusElement:
    """An element of a torus in canonical form: one exponent per cyclic factor."""

    shape: TorusShape
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(m) for m in self.exponents))
        orders = factor_orders(self.shape)
        if len(self.exponents) != len(orders):
            raise ValueError("one exponent per block required")
        for m, o in zip(self.exponents, orders):
            if not 0 <= m < o:
                raise ValueError(f"exponent {m} out of range for factor order {o}")

    @property
    def order(self) -> int:
        return lcm(*(o // gcd(m, o) for m, o in zip(self.exponents, factor_orders(self.shape))))


def factor_orders(shape: TorusShape) -> tuple[int, ...]:
    return tuple(2**k - s for k, s in shape.blocks)


def torus_order(shape: TorusShape) -> int:
    out = 1
    for o in factor_orders(shape):
        out *= o
    return out


def singer_index(shape: TorusShape) -> int:
    """Number of blocks with sign -1."""
    return sum(1 for _, s in shape.blocks if s == -1)


def singer_shape(n: int) -> TorusShape:
    """The cyclic torus of order 2^n + 1."""
    return TorusShape(((n, -1),))


def t_sharp(n: int) -> TorusShape:
    """The torus with n cyclic factors of order 3."""
    return TorusShape(((1, -1),) * n)


def enumerate_shapes(n: int) -> list[TorusShape]:
    """All signed partitions of n, canonically ordered, no duplicates."""
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    p = partition_counts(n, n)  # a signed partition is a pair (minus parts, plus parts)
    count = sum(p[j] * p[n - j] for j in range(n + 1))
    if count > WORK_LIMIT:
        raise WorkLimitError(f"{count} torus classes at rank {n} exceed the work limit {WORK_LIMIT}")
    shapes: list[TorusShape] = []
    for parts in filter(lambda p: sum(p) == n, partitions_under((n,) * n)):
        # distinct part sizes, largest first; each size gets 0..count minus signs
        sizes = sorted(set(parts) - {0}, reverse=True)
        counts = [parts.count(k) for k in sizes]
        for minus in product(*(range(c, -1, -1) for c in counts)):
            blocks = []
            for k, c, m in zip(sizes, counts, minus):
                blocks += [(k, -1)] * m + [(k, 1)] * (c - m)
            shapes.append(TorusShape(tuple(blocks)))
    return shapes


def block_sums(mu: EpsWeight, shape: TorusShape) -> tuple[int, ...]:
    """Residues of mu on each cyclic factor, consuming coordinates in block order."""
    if mu.rank != shape.rank:
        raise ValueError(f"rank mismatch: {mu.rank} vs {shape.rank}")
    residues = []
    pos = 0
    for k, s in shape.blocks:
        o = 2**k - s
        r = 0
        for j in range(k):
            r += mu.coords[pos + j] << j
        residues.append(r % o)
        pos += k
    return tuple(residues)


def restricts_trivially(mu: EpsWeight, shape: TorusShape) -> bool:
    """True when the character attached to mu is trivial on the whole torus."""
    return not any(block_sums(mu, shape))


def residues(ws: WeightSet, shape: TorusShape) -> frozenset[tuple[int, ...]]:
    """The distinct tuples `block_sums(mu, shape)` over the weights mu of ws.

    Raises WorkLimitError before any pass runs when `_residue_work` is more
    than WORK_LIMIT."""
    if ws.rank != shape.rank:
        raise ValueError(f"rank mismatch: {ws.rank} vs {shape.rank}")
    orbits = [to_eps(w).coords for w in ws.reps]
    work = _residue_work(shape, orbits)
    if work > WORK_LIMIT:
        raise WorkLimitError(f"{work} residue states on torus {shape} exceed the work limit {WORK_LIMIT}")
    codes = set()
    for m in orbits:
        codes.update(_residue_codes(shape.blocks, m))
    orders = factor_orders(shape)
    strides = [prod(orders[i + 1:]) for i in range(len(orders))]
    return frozenset(tuple(c // st % o for st, o in zip(strides, orders)) for c in codes)


@lru_cache(maxsize=1 << 14)
def _residue_codes(blocks: tuple[tuple[int, int], ...], mags: tuple[int, ...]) -> tuple[int, ...]:
    """Residue tuples r of the signed arrangements of the sorted magnitudes
    `mags` over `blocks`, each packed as sum(r_i * product of later orders):
    the first block is filled position by position, keeping the unplaced
    magnitudes and partial residue, then joined with the later blocks.
    The result holds one code per distinct tuple, never one per torus element."""
    if not blocks:
        return (0,)
    (k, s), later = blocks[0], blocks[1:]
    o = 2**k - s
    stride = prod(2**b - t for b, t in later)
    states = {(mags, 0)}
    for j in range(k):
        states = _place(states, j, o)
    return tuple({r * stride + c for rest, r in states for c in _residue_codes(later, rest)})


def _place(states: set, j: int, o: int) -> set:
    """The states (unplaced magnitudes, residue mod o) after one more
    magnitude is placed, with either sign, at the position worth 2^j."""
    out = set()
    for left, r in states:
        for i, v in enumerate(left):
            if i and left[i - 1] == v:
                continue  # equal magnitudes give equal arrangements
            rest = left[:i] + left[i + 1:]
            out.add((rest, (r + (v << j)) % o))
            out.add((rest, (r - (v << j)) % o))
    return out


def _residue_work(shape: TorusShape, orbits: list[tuple[int, ...]]) -> int:
    """An upper bound on the states and codes `_residue_codes` creates for
    the orbits with these magnitudes, counting each distinct call once, as
    its cache does: the calls on the block at position p are at most the
    sum of N_p over the orbits (see `_call_work`) and at most the multisets
    of n - p magnitudes up to the largest, and each makes at most the most
    any of these orbits' calls on that block can make."""
    n, values = shape.rank, 1 + max((m[0] for m in orbits), default=0)
    work, p = 0, 0
    for (k, _), calls in zip(shape.blocks, zip(*(_call_work(shape.blocks, m) for m in orbits))):
        distinct = comb(values + n - p - 1, n - p)
        work += min(sum(c * w for c, w in calls), distinct * max(w for _, w in calls))
        p += k
    return work


@lru_cache(maxsize=1 << 14)
def _call_work(blocks: tuple[tuple[int, int], ...], mags: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Per block at position p, the distinct calls `_residue_codes(blocks,
    mags)` makes on it, at most N_p, and the most states and codes each makes.

    With N_j the sub-multisets of mags of size j and A_j the signed
    sequences of length j drawn from mags (which bound the same counts for
    any unplaced rest): at step j a call holds at most min(o * N_j, A_j)
    states, and its codes are at most prod of min(o_b, A_{k_b}) over its blocks.
    """
    n = len(mags)
    subsets, seqs = [1] + [0] * n, [1] + [0] * n
    seen = 0
    for v, m in Counter(mags).items():  # take t copies of v, each with 2 signs unless v = 0
        seen += m
        for j in range(seen, 0, -1):
            for t in range(1, min(j, m) + 1):
                subsets[j] += subsets[j - t]
                seqs[j] += seqs[j - t] * comb(j, t) * (2 if v else 1) ** t
    out, codes, p = [], 1, n
    for k, s in reversed(blocks):
        o = 2**k - s
        p -= k
        codes *= min(o, seqs[k])
        out.append((subsets[p], sum(min(o * subsets[j], seqs[j]) for j in range(1, k + 1)) + codes))
    return tuple(reversed(out))


def trivial_constituent(ws: WeightSet, shape: TorusShape) -> bool:
    """True when some weight of ws restricts trivially to the torus."""
    return (0,) * len(shape.blocks) in residues(ws, shape)


def occurs_in_omega_n(residues: tuple[int, ...], shape: TorusShape) -> bool:
    """Whether a character with these block residues occurs in the top
    fundamental module restricted to the torus: it must be nontrivial on
    every sign -1 factor; sign +1 factors are unconstrained."""
    if len(residues) != len(shape.blocks):
        raise ValueError("one residue per block required")
    return all(r != 0 for r, (_, s) in zip(residues, shape.blocks) if s == -1)


def eval_weight(mu: EpsWeight, t: TorusElement) -> int:
    """Value of mu at t as a residue modulo lcm of the factor orders.

    Zero means the character value is 1.
    """
    return next(_eval_residues([block_sums(mu, t.shape)], t))


def _eval_residues(rows: Iterable[tuple[int, ...]], t: TorusElement) -> Iterator[int]:
    """Values at t, modulo lcm of the factor orders, of the characters whose
    block residues are the tuples in rows."""
    orders = factor_orders(t.shape)
    L = lcm(*orders)
    coefs = [(L // o) * m for o, m in zip(orders, t.exponents)]
    return (sum(c * r for c, r in zip(coefs, rs)) % L for rs in rows)


def unisingular_on_torus(ws: WeightSet, shape: TorusShape) -> bool:
    """Brute-force sweep: does every torus element take value 1 on some weight?

    Enumerates every exponent tuple of the canonical form; errors out if
    the torus order exceeds the work limit rather than truncating.
    """
    if ws.rank != shape.rank:
        raise ValueError(f"rank mismatch: {ws.rank} vs {shape.rank}")
    if torus_order(shape) > WORK_LIMIT:
        raise WorkLimitError(f"torus order {torus_order(shape)} exceeds the work limit {WORK_LIMIT}")
    orders = factor_orders(shape)
    L = lcm(*orders)
    coefs = [L // o for o in orders]
    # rows with vanishing residues sort first so sweeps short-circuit early
    rows = sorted(
        (tuple(c * r for c, r in zip(coefs, rs)) for rs in residues(ws, shape)),
        key=sum,
    )
    if rows and not any(rows[0]):
        return True  # a weight trivial on the whole torus covers every element
    for m in product(*(range(o) for o in orders)):
        if not any(sum(x * mi for x, mi in zip(row, m)) % L == 0 for row in rows):
            return False
    return True


def parse_torus_label(text: str) -> TorusShape:
    """Parse a comma-separated signed-part label such as "-3,2,1"."""
    try:
        parts = [int(p) for p in text.strip().split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse torus label {text!r}") from exc
    if any(p == 0 for p in parts):
        raise ValueError("torus label parts must be nonzero")
    return TorusShape(tuple((abs(p), 1 if p > 0 else -1) for p in parts))
