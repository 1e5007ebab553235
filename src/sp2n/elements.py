"""Semisimple elements of Sp_2n(2) in minimal block form.

A block (d, o, sign) records an orthogonally indecomposable piece of the
natural module: half-dimension d, order o of the element on the piece,
sign -1 for irreducible action (o divides 2^d + 1) and +1 for a dual pair
of halves (o divides 2^d - 1).  Minimality pins the multiplicative order
of 2 modulo o to 2d, respectively d, so blocks cannot be split further;
non-minimal data is rejected rather than re-decomposed.

The coprimality graph on blocks has an edge where two block orders share
a factor; an isolated block of full order 2^d + 1 is "singular".  The
number of singular blocks is the element's Singer index, and the Singer
height of n is the largest possible Singer index at rank n.
"""

from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from .arith import block_multisets, charge, divisors, has_order, totient
from .tori import TorusElement, TorusShape, block_key
from .weights import _Value


def _block_error(d: int, o: int, s: int) -> str | None:
    """Why (d, o, s) is not a minimal block, or None when it is: the one
    block rule, behind the constructor and `valid_blocks` alike."""
    if d < 1 or o < 1:
        return f"block ({d},{o},{s}) has nonpositive fields"
    if s not in (1, -1):
        return f"block sign must be +1 or -1, got {s}"
    if (pow(2, d, o) - s) % o != 0:
        return f"order {o} does not divide 2^{d} {'+' if s == -1 else '-'} 1"
    if o == 1:
        return None if d == 1 and s == 1 else "an identity block must be (1, 1, +1)"
    need = 2 * d if s == -1 else d
    if not has_order(2, o, need):
        return f"block ({d},{o},{s}) is not minimal: order of 2 mod {o} is not {need}"
    return None


class SemisimpleElement(_Value):
    """Blocks (d_i, o_i, sign_i); validated on construction."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, int, int], ...]):
        blocks = tuple((int(d), int(o), int(s)) for d, o, s in blocks)
        if not blocks:
            raise ValueError("an element needs at least one block")
        for block in blocks:
            if error := _block_error(*block):
                raise ValueError(error)
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other):
        return self.blocks == other.blocks if type(other) is SemisimpleElement else NotImplemented

    def __hash__(self):
        return hash((self.blocks,))

    @property
    def rank(self) -> int:
        return sum(d for d, _, _ in self.blocks)

    @property
    def order(self) -> int:
        return lcm(*(o for _, o, _ in self.blocks))

    def __str__(self) -> str:
        return ";".join(f"{d}:{o}:{'-' if s == -1 else '+'}" for d, o, s in self.blocks)


class GammaGraph(_Value):
    """Coprimality graph on block indices (0-based), with its singular vertices."""

    __slots__ = ("vertices", "edges", "singular")

    def __init__(self, vertices: int, edges: frozenset[tuple[int, int]], singular: tuple[int, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "singular", singular)


def build_element(blocks) -> SemisimpleElement:
    """Validate and build an element from (d, o, sign) triples."""
    return SemisimpleElement(tuple(tuple(b) for b in blocks))


def identity_element(n: int) -> SemisimpleElement:
    return SemisimpleElement(((1, 1, 1),) * n)


def singer_cycle(n: int) -> SemisimpleElement:
    """A generator of the cyclic torus of order 2^n + 1, as block data."""
    return SemisimpleElement(((n, 2**n + 1, -1),))


@lru_cache(maxsize=2048)  # every element of ranks <= 10, 1,620 of them
def gamma_graph(g: SemisimpleElement) -> GammaGraph:
    blocks = g.blocks
    k = len(blocks)
    edges = frozenset(
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if gcd(blocks[i][1], blocks[j][1]) > 1
    )
    linked = {v for e in edges for v in e}
    singular = tuple(
        i for i, (d, o, s) in enumerate(blocks) if i not in linked and o.bit_length() == d + 1 and o == 2**d + 1
    )
    return GammaGraph(k, edges, singular)


def singer_index_element(g: SemisimpleElement) -> int:
    return len(gamma_graph(g).singular)


@lru_cache(maxsize=32)  # every rank up to the si suite's cap of 24
def singer_height(n: int) -> tuple[int, frozenset[int]]:
    """Largest l admitting parts n_1 + ... + n_l <= n with 2^(n_i) + 1 pairwise coprime.

    Exhaustive search over non-decreasing part sequences; a part joins when
    2^p + 1 is coprime to the product of the values chosen so far.
    Repeated parts are never coprime, so distinctness is forced by the gcd
    test rather than assumed.  Returns the value and the first maximal
    witness found.  Charges the bits of gcd work as it runs: the running
    count of the parts tried times n, about the bits of each gcd test.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    tried, best = 0, ()

    def rec(start: int, budget: int, acc: tuple[int, ...], chosen: int) -> None:
        nonlocal tried, best
        if len(acc) > len(best):
            best = acc
        parts = range(start, budget + 1)
        tried += len(parts)
        charge(tried * n, f"bits of gcd work for the Singer height of {n}")
        for p in parts:
            v = 1 << p | 1  # 2^p + 1
            if gcd(v, chosen) == 1:
                rec(p, budget - p, acc + (p,), chosen * v)

    rec(1, n, (), 1)
    return len(best), frozenset(best)


def singer_height_fast(n: int) -> tuple[int, frozenset[int]]:
    """Closed form: 2^a + 1 and 2^b + 1 are coprime iff a and b have
    different 2-adic valuations, so an optimal witness is 1, 2, 4, ...
    and the value is the largest l with 2^l - 1 <= n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    l = (n + 1).bit_length() - 1
    return l, frozenset(2**i for i in range(l))


def max_singer_element(n: int) -> SemisimpleElement:
    """An element of rank n whose Singer index attains the Singer height."""
    _, witness = singer_height_fast(n)
    blocks = [(p, 2**p + 1, -1) for p in sorted(witness)]
    blocks += [(1, 1, 1)] * (n - sum(sorted(witness)))
    return SemisimpleElement(tuple(blocks))


def has_eigenvalue_one_omega_n(g: SemisimpleElement) -> bool:
    """Eigenvalue 1 on the top fundamental module iff no singular block exists."""
    return not gamma_graph(g).singular


def omega_n_eigenvalue_orders(g: SemisimpleElement) -> frozenset[int]:
    """Orders of the roots of unity occurring as eigenvalues on the top
    fundamental module: the divisors of the element order sharing a
    factor with every singular block order."""
    singular_orders = [g.blocks[i][1] for i in gamma_graph(g).singular]
    return frozenset(
        e for e in divisors(g.order)
        if all(gcd(e, o) > 1 for o in singular_orders)
    )


def to_torus_element(g: SemisimpleElement, generators: tuple[int, ...] | None = None) -> TorusElement:
    """Embed g into the canonical form of a compatible torus.

    Block i of shape (d_i, sign_i) has factor order O_i = 2^(d_i) - sign_i;
    the exponent (O_i / o_i) * u_i realizes an element of order o_i for any
    unit u_i modulo o_i.  Default generators are all 1.
    """
    us = generators if generators is not None else (1,) * len(g.blocks)
    if len(us) != len(g.blocks):
        raise ValueError("one generator choice per block required")
    for u, (_, o, _) in zip(us, g.blocks):
        if gcd(u, o) != 1:
            raise ValueError(f"generator {u} is not a unit modulo {o}")
    # sort pairs in the shape's canonical order so exponents stay aligned
    pairs = sorted(zip(g.blocks, us), key=lambda p: block_key(p[0]))
    shape = TorusShape(tuple((d, s) for (d, _, s), _ in pairs))
    exps = []
    for (d, o, s), u in pairs:
        big = 2**d - s
        exps.append((big // o) * u % big if big > 1 else 0)
    return TorusElement(shape, tuple(exps))


def generator_tuples(g: SemisimpleElement):
    """All generator choices (u_1, ..., u_k), u_i a unit modulo o_i.  Charges
    their number, the product of the totients, before listing any unit."""
    charge(prod(totient(o) for _, o, _ in g.blocks), "generator tuples")
    unit_ranges = [[u for u in range(1, o + 1) if gcd(u, o) == 1] for _, o, _ in g.blocks]
    return product(*unit_ranges)


def valid_blocks(d: int) -> list[tuple[int, int, int]]:
    """All minimal blocks of half-dimension d, sign -1 first, orders descending."""
    return [(d, o, s) for s in (-1, 1) for o in reversed(divisors(2**d - s)) if not _block_error(d, o, s)]


def enumerate_elements(n: int) -> list[SemisimpleElement]:
    """All valid elements of rank n, one per block multiset."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [SemisimpleElement(blocks) for blocks in block_multisets(n, valid_blocks)]


def parse_element(text: str) -> SemisimpleElement:
    """Parse semicolon-separated "d:o:sign" triples, e.g. "1:3:-;2:5:-"."""
    blocks = []
    for part in text.strip().split(";"):
        try:
            d, o, sign = part.split(":")
            blocks.append((int(d), int(o), {"-": -1, "+": 1}[sign]))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"cannot parse element block {part!r}") from exc
    return build_element(blocks)
