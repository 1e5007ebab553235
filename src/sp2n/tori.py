"""Maximal tori of Sp_2n(2) as signed partitions, and weight restriction.

A torus shape is a list of blocks (k, sign) with cyclic factor order
2^k - sign; sign -1 marks a block acting irreducibly (a Singer factor).
On the canonical diagonal form of a block the epsilon coordinate at
offset j evaluates on the block generator as zeta^(2^j), so a weight
restricts to a block as the residue sum(c_j * 2^j) modulo the factor
order.  All wrap-around relations are automatic in the modular
arithmetic.  The weight sets are evaluated without listing an orbit: one
o-bit mask (o a modulus) of the values reached is kept per unplaced rest
of an orbit's magnitudes, placed position by position by `_place`.  That
one engine has two readers: `value_mask` reads the whole mask of one
linear form once every position is placed (th2 reads the Singer torus this
way), and the zero questions, whether a weight restricts trivially to a
torus (`trivial_constituent`) or vanishes at one element (`zero_at`), go
through one cached per-orbit kernel that follows only residue 0, form by
form.
`zero_forms` lists the distinct canonical forms of the elements of a torus
or of an element's generator choices, each tested once by `zero_at`.  Both
it and the element oracles build a block's coefficients at one value with
`_coefficients`.  `eval_coefficients` writes a value at a torus element in
canonical form as a dot product with the epsilon coordinates; with
`zero_form` and `elements.to_torus_element` it is the reference route that
the tests hold those forms to.
"""

from collections import Counter
from collections.abc import Iterable
from contextvars import ContextVar
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, gcd, lcm, prod
from operator import mul

from .arith import block_multisets, charge, refuse_too_deep, totient
from .weights import EpsWeight, WeightSet, _Value, same_rank


def block_key(block: tuple[int, ...]) -> tuple[int, int]:
    """The canonical block order, larger blocks first and sign -1 before +1,
    for torus blocks (k, sign) and element blocks (d, o, sign) alike."""
    return -block[0], block[-1]


class TorusShape(_Value):
    """Signed partition (k_i, sign_i); blocks kept in canonical order."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, int], ...]):
        blocks = tuple((int(k), int(s)) for k, s in blocks)
        for k, s in blocks:
            if k < 1:
                raise ValueError(f"block rank must be positive, got {k}")
            if s not in (1, -1):
                raise ValueError(f"block sign must be +1 or -1, got {s}")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=block_key)))

    @property
    def rank(self) -> int:
        return sum(k for k, _ in self.blocks)

    def __str__(self) -> str:
        return ",".join(str(s * k) for k, s in self.blocks)


class TorusElement(_Value):
    """An element of a torus in canonical form: one exponent per cyclic factor."""

    __slots__ = ("shape", "exponents")

    def __init__(self, shape: TorusShape, exponents: tuple[int, ...]):
        exponents = tuple(int(m) for m in exponents)
        orders = factor_orders(shape)
        if len(exponents) != len(orders):
            raise ValueError("one exponent per block required")
        for m, o in zip(exponents, orders):
            if not 0 <= m < o:
                raise ValueError(f"exponent {m} out of range for factor order {o}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "exponents", exponents)

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
    return [TorusShape(blocks) for blocks in block_multisets(n, lambda k: ((k, -1), (k, 1)))]


def block_sums(mu: EpsWeight, shape: TorusShape) -> tuple[int, ...]:
    """Residues of mu on each cyclic factor, consuming coordinates in block order."""
    same_rank(mu, shape)
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


_spent: ContextVar[int] = ContextVar("engine work spent")


def _tallied(run, *args):
    """run(*args) against one fresh work tally: the mask words its passes
    hold (sub-results already cached cost nothing)."""
    token = _spent.set(0)
    try:
        return run(*args)
    finally:
        _spent.reset(token)


def _spend(count: int) -> None:
    """Add count to the tally of the running engine call and charge it."""
    spent = _spent.get() + count
    _spent.set(spent)
    charge(spent, "mask words")


def _passes(states: dict, cs: Iterable[int], o: int) -> dict:
    """The states after one `_place` pass per multiplier in cs, modulus o.
    Charged as it runs: ceil(o / 64) words before the first pass (so a mask
    too wide to allocate is refused before any shift), then the words of
    the masks each pass returns (one per started 64 bits)."""
    _spend(-(-o // 64))
    for c in cs:
        states = _place(states, c, o)
        _spend(sum(-(-mask.bit_length() // 64) for mask in states.values()))
    return states


def _place(states: dict, c: int, o: int) -> dict:
    """One pass of the placement engine, the one behind `_zero` and
    `value_mask`: the states {unplaced rest: mask of the values reached mod
    o} after one more magnitude v is placed, with either sign, at a position
    of multiplier c: the mask rotated by +(v * c) and by -(v * c) mod o."""
    full, out = (1 << o) - 1, {}
    for left, mask in states.items():
        both = mask | mask << o  # bit r at r and r + o: a rotation is one shift
        for i, v in enumerate(left):
            if i and left[i - 1] == v:
                continue  # equal magnitudes give equal arrangements
            a, rest = v * c % o, left[:i] + left[i + 1:]
            out[rest] = out.get(rest, 0) | ((both >> a | both >> (o - a)) & full)
    return out


@lru_cache(maxsize=1 << 16)
def _zero(forms: tuple[tuple[int, tuple[int, ...]], ...], orbit: tuple[int, ...]) -> bool:
    """Whether some signed arrangement of the sorted magnitudes `orbit` makes
    every linear form vanish: each form (m, c) takes the next len(c)
    positions, worth c_j modulo m.  The first form's passes (`_passes`, the
    only charge) place those positions; only the keys whose mask holds
    residue 0 go on to the later forms."""
    if not forms:
        return True
    (m, cs), later = forms[0], forms[1:]
    states = _passes({orbit: 1}, cs, m)
    return any(mask & 1 and _zero(later, rest) for rest, mask in states.items())


def _zero_in(ws: WeightSet, forms: tuple[tuple[int, tuple[int, ...]], ...]) -> bool:
    """Whether some weight of ws makes every form vanish, orbit by orbit,
    against one work tally per call.  `_zero` nests one call per form, so
    forms past the interpreter's recursion limit are refused as over the work limit."""
    try:
        return _tallied(any, (_zero(forms, orbit) for orbit in ws.orbits))  # consumed inside the tally
    except RecursionError:
        refuse_too_deep(f"the {len(forms)} forms of the zero test")


def trivial_constituent(ws: WeightSet, shape: TorusShape) -> bool:
    """True when some weight of ws restricts trivially to the torus: its
    block sum over offsets j, worth 2^j, vanishes modulo every 2^k - sign."""
    same_rank(ws, shape)
    return _zero_in(ws, tuple((2**k - s, tuple(1 << j for j in range(k))) for k, s in shape.blocks))


def zero_form(t: TorusElement) -> tuple[int, tuple[int, ...]]:
    """The canonical form (m, c) of `eval_coefficients(t)` = (L, c'): m = L / g
    and c the sorted min(c'_j, L - c'_j) / g, g = gcd(L, c').  A weight
    vanishes at t iff sum(c_j * mu_j) = 0 mod m; the Weyl group permutes
    and negates coordinates, so for a Weyl orbit the answer depends on the
    form only."""
    return _canonical(*eval_coefficients(t))


def _canonical(L: int, c: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    g = gcd(L, *c)
    return L // g, tuple(sorted(min(x, L - x) // g for x in c))


def _coefficients(M: int, d: int, o: int, v: int) -> tuple[int, ...]:
    """The coefficients (M / o) * v * 2^j mod M, j < d, of a cyclic block
    (d, o) at the value v, for M a multiple of o: a weight takes the value
    sum(c_j * mu_j) mod M there, so `_canonical(M, c)` of the blocks'
    coefficients joined is the element's `zero_form`."""
    return tuple((M // o * v << j) % M for j in range(d))


def zero_forms(blocks: Iterable[tuple[int, int]], units: bool) -> list[tuple[int, tuple[int, ...]]]:
    """The distinct canonical forms (`zero_form`), sorted, of the elements of
    a product of cyclic blocks (d, o): a block takes the values v modulo o,
    its units (units=True, an element's generator choices) or all of them
    (a torus factor), with coefficients (M / o) * v * 2^j mod M for j < d,
    M the lcm of the orders.  A form sees only the union of the blocks'
    folded coefficient multisets, so each block type keeps its distinct
    multisets (v -> 2v rotates one, v -> -v negates it) and equal blocks
    take them with repetition.  Charged before each step: the values times
    d summed over the block types, then the picks, counted from the
    multisets by binomials before any is built, times the rank."""
    types = Counter(blocks)
    charge(sum(d * (totient(o) if units else o) for d, o in types), "block coefficients")
    M, n = lcm(*(o for _, o in types)), sum(d * r for (d, _), r in types.items())
    folded = [(sorted({tuple(sorted(min(x, M - x) for x in _coefficients(M, d, o, v)))
                       for v in range(o) if not units or gcd(v, o) == 1}), r) for (d, o), r in types.items()]
    charge(prod(comb(len(f) + r - 1, r) for f, r in folded) * n, f"form picks times rank {n}")
    picks = product(*(combinations_with_replacement(f, r) for f, r in folded))
    return sorted({_canonical(M, sum(sum(pick, ()), ())) for pick in picks})


def _checked(ws: WeightSet, form: tuple[int, tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """The form (m, c) of a linear form on the weights of ws, validated."""
    m, c = form
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if len(c) != ws.rank:
        raise ValueError(f"rank mismatch: {ws.rank} vs {len(c)}")
    return m, tuple(c)


def zero_at(ws: WeightSet, form: tuple[int, tuple[int, ...]]) -> bool:
    """Whether some weight of ws vanishes at a torus element of canonical
    form `form` (see `zero_form`): whether the element has eigenvalue 1."""
    return _zero_in(ws, (_checked(ws, form),))


def value_mask(ws: WeightSet, form: tuple[int, tuple[int, ...]]) -> int:
    """The m-bit mask of the values sum(c_j * mu_j) mod m over the weights mu
    of ws, for a form (m, c) as `zero_at` takes it: bit r is set iff some
    weight takes the value r (no bit for a set with no weight).  Every
    position is placed, so the passes end with the one key (), which holds
    the whole mask; charged as `_passes` charges, against one work tally
    per call."""
    m, c = _checked(ws, form)
    return _tallied(_passes, dict.fromkeys(ws.orbits, 1), c, m).get((), 0)


def occurs_in_omega_n(residues: tuple[int, ...], shape: TorusShape) -> bool:
    """Whether a character with these block residues occurs in the top
    fundamental module restricted to the torus: it must be nontrivial on
    every sign -1 factor; sign +1 factors are unconstrained."""
    if len(residues) != len(shape.blocks):
        raise ValueError("one residue per block required")
    return all(r != 0 for r, (_, s) in zip(residues, shape.blocks) if s == -1)


def eval_coefficients(t: TorusElement) -> tuple[int, tuple[int, ...]]:
    """(L, c) with c_j = (L / o_b) * m_b * 2^j mod L for the coordinate at
    offset j of block b: a weight mu takes the value sum(c_j * mu_j) mod L
    at t, its block-residue value, since block b sums 2^j * mu_j."""
    orders = factor_orders(t.shape)
    L = lcm(*orders)
    blocks = zip(t.shape.blocks, orders, t.exponents)
    return L, tuple((L // o * m << j) % L for (k, _), o, m in blocks for j in range(k))


def eval_weight(mu: EpsWeight, t: TorusElement) -> int:
    """Value of mu at t as a residue modulo lcm of the factor orders.

    Zero means the character value is 1.
    """
    same_rank(mu, t.shape)
    L, c = eval_coefficients(t)
    return sum(map(mul, c, mu.coords)) % L


def unisingular_on_torus(ws: WeightSet, shape: TorusShape) -> bool:
    """Brute-force sweep: does every torus element take value 1 on some weight?

    Tests each distinct zero form of the torus elements (`zero_forms`) with
    `zero_at`; errors out, not truncating, when any of their charges is
    over the work limit.
    """
    same_rank(ws, shape)
    if trivial_constituent(ws, shape):
        return True  # a weight trivial on the whole torus covers every element
    return all(zero_at(ws, f) for f in zero_forms(((k, 2**k - s) for k, s in shape.blocks), units=False))


def parse_torus_label(text: str) -> TorusShape:
    """Parse a comma-separated signed-part label such as "-3,2,1"."""
    try:
        parts = [int(p) for p in text.strip().split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse torus label {text!r}") from exc
    if any(p == 0 for p in parts):
        raise ValueError("torus label parts must be nonzero")
    return TorusShape(tuple((abs(p), 1 if p > 0 else -1) for p in parts))
