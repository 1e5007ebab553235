"""The orbit representation and the placement engine against explicitly
listed weight sets.

The reference sets here are built the long way, independently of
`WeightSet.member_coords`: every orbit from all n! permutations and all 2^n
sign patterns, saturated sets as unions of those orbits, and the a_n = 1
sets as the explicit Minkowski sum with the orbit of the top fundamental
weight.  The engine's two readers, the per-orbit zero tests and
`value_mask`, are checked against the residues of those listed members,
against the set-based engine the bitset masks replaced, kept here as
`_ref_codes`, and against `eval_weight`.
"""

import random
from functools import cache
from itertools import permutations, product
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp2n import arith, tori
from sp2n.arith import WorkLimitError
from sp2n.criteria import singer_cycle_has_one, th7_blocks
from sp2n.elements import SemisimpleElement, enumerate_elements, generator_tuples, to_torus_element
from sp2n.reps import ModuleKind, weight_set
from sp2n.tori import (
    TorusElement,
    TorusShape,
    block_sums,
    enumerate_shapes,
    eval_weight,
    factor_orders,
    trivial_constituent,
    value_mask,
    zero_at,
    zero_form,
    zero_forms,
)
from sp2n.weights import (
    EpsWeight,
    Weight,
    WeightSet,
    dominant_below,
    dominant_weights_up_to,
    from_eps,
    fundamental,
    to_eps,
)

IRR2 = ModuleKind.IRREDUCIBLE_2
WEYL = ModuleKind.WEYL

_orbits: dict[tuple[int, ...], set[tuple[int, ...]]] = {}


def _orbit(coords):
    if coords not in _orbits:
        _orbits[coords] = {
            tuple(s * c for s, c in zip(signs, perm))
            for perm in permutations(coords)
            for signs in product((1, -1), repeat=len(coords))
        }
    return _orbits[coords]


def _listed(w, kind):
    if kind is WEYL or w.coeffs[-1] == 0:
        out = set()
        for mu in dominant_below(w):
            out |= _orbit(to_eps(mu).coords)
        return out
    wn = fundamental(w.rank, w.rank)
    return {
        tuple(a + b for a, b in zip(x, y))
        for x in _listed(w - wn, IRR2)
        for y in _orbit(to_eps(wn).coords)
    }


def _listed_residues(listed, n):
    """Per torus shape, the block residues of every listed weight (as in
    `block_sums`), sharing the block values sum(v[pos + j] * 2^j) across shapes."""
    vs = list(listed)
    value = {}  # (first position, block rank) -> block value of each listed weight
    for pos in range(n):
        acc = [0] * len(vs)
        for k in range(1, n - pos + 1):
            acc = [a + (v[pos + k - 1] << (k - 1)) for a, v in zip(acc, vs)]
            value[pos, k] = acc
    out = {}
    for shape in enumerate_shapes(n):
        cols, pos = [], 0
        for k, s in shape.blocks:
            cols.append([x % (2**k - s) for x in value[pos, k]])
            pos += k
        out[shape] = set(zip(*cols))
    return out


def _block_form(k, s):
    """The form of the one-block torus (k, s): modulus 2^k - s, offset j worth 2^j."""
    return 2**k - s, tuple(1 << j for j in range(k))


def _th7_listed(listed, sizes):
    spans, pos = [], 0
    for b in sizes:
        spans.append(range(pos, pos + b))
        pos += b
    return all(any(all(v[i] == 0 for i in span) for span in spans) for v in listed)


def _compositions(total):
    """Every list of positive block sizes with sum at most total."""
    if total == 0:
        return [[]]
    out = [[]]
    for first in range(1, total + 1):
        out += [[first] + rest for rest in _compositions(total - first)]
    return out


def _check(w, kind):
    n = w.rank
    ws = weight_set(w, kind)
    listed = _listed(w, kind)
    streamed = list(ws.member_coords())
    assert len(streamed) == len(listed) and set(streamed) == listed, (w, kind)  # each member once
    assert frozenset(ws) == {EpsWeight(v) for v in listed}, (w, kind)
    assert len(ws) == len(listed), (w, kind)
    radius = 2 if n <= 4 else 1
    for v in product(range(-radius, radius + 1), repeat=n):
        assert (EpsWeight(v) in ws) == (v in listed), (w, kind, v)
    dominant = [from_eps(EpsWeight(v)) for v in listed
                if all(v[i] >= v[i + 1] for i in range(n - 1)) and v[-1] >= 0]
    assert list(ws.reps) == sorted(dominant, key=lambda d: d.coeffs), (w, kind)
    for shape, expected in _listed_residues(listed, n).items():
        assert trivial_constituent(ws, shape) == ((0,) * len(shape.blocks) in expected), (w, kind, shape)
        if len(shape.blocks) == 1:  # (n, 1) and (n, -1): the whole value mask
            assert value_mask(ws, _block_form(*shape.blocks[0])) == sum(1 << r for (r,) in expected), (w, kind, shape)
    sizes_pool = _compositions(n) if n <= 4 else [[1] * k for k in range(n + 1)] + [[2, 3], [3, 1, 1]]
    for sizes in sizes_pool:
        assert th7_blocks(w, sizes, kind) == _th7_listed(listed, sizes), (w, kind, sizes)


def _modules(n):
    """Every restricted weight with both kinds, and the Weyl modules with delta <= 8."""
    out = [(Weight(bits), kind) for bits in product((0, 1), repeat=n) for kind in (IRR2, WEYL)]
    return out + [(w, WEYL) for w in dominant_weights_up_to(n, 8) if not w.is_restricted()]


@pytest.mark.parametrize("n", range(1, 5))
def test_orbit_sets_match_listed_sets(n):
    for w, kind in _modules(n):
        _check(w, kind)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_modules(5)))
def test_orbit_sets_match_listed_sets_rank5(module):
    _check(*module)


def test_weight_set_holds_dominant_representatives():
    ws = WeightSet(2, [(1, 0), (1, 1), (1, 0)])
    assert ws.orbits == ((1, 1), (1, 0))  # by coefficient string: 0,1 before 1,0
    assert ws.reps == (Weight((0, 1)), Weight((1, 0)))
    assert len(ws) == 4 + 4
    assert EpsWeight((0, -1)) in ws and EpsWeight((2, 0)) not in ws
    assert len(list(ws)) == 8  # iteration streams, keeps nothing: two slots, no instance dict
    assert WeightSet.__slots__ == ("rank", "orbits") and not hasattr(ws, "__dict__")
    for bad in ((0, 1), (1, -1), (1, 0, 0), (1,)):  # increasing, negative, wrong lengths
        with pytest.raises(ValueError):
            WeightSet(2, [bad])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n).map(lambda m: tuple(sorted(m, reverse=True))),
    min_size=1, max_size=6))))
def test_orbits_run_in_coefficient_string_order(inputs):
    # the order of the orbits fixes which orbit the zero tests place first
    n, orbits = inputs
    ws = WeightSet(n, orbits)
    keys = [r.coeffs for r in ws.reps]
    assert keys == sorted(set(keys)) and set(ws.orbits) == set(orbits)
    assert ws.orbits == tuple(to_eps(r).coords for r in ws.reps)
    assert WeightSet(n, [to_eps(r).coords for r in ws.reps]) == ws


def _ref_place(states, j, o):
    """One pass of the set-based engine the bitset masks replaced: a state
    is a pair (unplaced magnitudes, residue mod o)."""
    out = set()
    for left, r in states:
        for i, v in enumerate(left):
            if i and left[i - 1] == v:
                continue
            rest = left[:i] + left[i + 1:]
            out.add((rest, (r + (v << j)) % o))
            out.add((rest, (r - (v << j)) % o))
    return out


@cache
def _ref_codes(blocks, mags):
    """The residue tuples of one orbit on `blocks`, each packed as sum(r_i *
    product of later orders), by the set-based engine: the reference."""
    if not blocks:
        return frozenset({0})
    (k, s), later = blocks[0], blocks[1:]
    o = 2**k - s
    stride = prod(2**b - t for b, t in later)
    states = {(mags, 0)}
    for j in range(k):
        states = _ref_place(states, j, o)
    return frozenset(r * stride + c for rest, r in states for c in _ref_codes(later, rest))


def _ref_residues(ws, shape):
    orders = [2**k - s for k, s in shape.blocks]
    strides = [prod(orders[i + 1:]) for i in range(len(orders))]
    codes = set().union(*(_ref_codes(shape.blocks, m) for m in ws.orbits))
    return {tuple(c // st % o for st, o in zip(strides, orders)) for c in codes}


@st.composite
def _engine_inputs(draw):
    """A torus shape of rank n <= 6 and a weight set given by up to three
    dominant weights, as sorted magnitudes 0..3 (so zeros and repeats are common)."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(enumerate_shapes(n)))
    mags = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(lambda m: tuple(sorted(m, reverse=True)))
    return shape, draw(st.lists(mags, min_size=1, max_size=3))


@settings(max_examples=80, deadline=None)
@given(_engine_inputs())
@example((TorusShape(((3, -1), (2, 1), (1, -1))), [(3, 3, 2, 0, 0, 0)]))
@example((TorusShape(((2, 1), (2, -1), (1, 1), (1, -1))), [(2, 2, 1, 1, 0, 0), (1, 1, 1, 1, 1, 1)]))
def test_bitset_engine_matches_set_engine(inputs):
    shape, orbits = inputs
    ws = WeightSet(shape.rank, orbits)
    expected = _ref_residues(ws, shape)
    assert trivial_constituent(ws, shape) == ((0,) * len(shape.blocks) in expected)
    if len(shape.blocks) == 1:
        assert value_mask(ws, _block_form(*shape.blocks[0])) == sum(1 << r for (r,) in expected)


def test_multi_block_torus_rank7_answers():
    ws, shape = weight_set(Weight((1,) * 7)), tori.parse_torus_label("-2,-1,-1,-1,-1,-1")
    assert trivial_constituent(ws, shape) == ((0,) * len(shape.blocks) in _ref_residues(ws, shape))


def test_singer_torus_rank7_answers():
    # one of the rank-7 sets the th2 suite evaluates one cap above its default
    w = Weight((1, 1, 1, 1, 1, 0, 1))
    assert bool(value_mask(weight_set(w), _block_form(7, -1)) & 1) == singer_cycle_has_one(w)


@pytest.mark.parametrize("n", range(1, 8))
def test_singer_masks_are_closed_under_negation(n):
    # -1 lies in the Weyl group of C_n, so every weight set is closed under
    # negation and so is each of its value masks; th2's oracle ANDs two
    # masks without negating either because of this
    form = _block_form(n, -1)
    o = form[0]
    for bits in product((0, 1), repeat=n):
        mask = value_mask(weight_set(Weight(bits)), form)
        assert mask == sum(1 << -r % o for r in range(o) if mask >> r & 1), bits


def test_singer_torus_rank8_answers(monkeypatch):
    # th2 at cap 8 evaluates this set; a closed-form bound of 1,485,846
    # refused it, while the engine does 38,607 units of work and reaches
    # every value modulo 257
    w = Weight((1,) * 8)
    ws = weight_set(w)
    mask, charged = _zero_charged(lambda: value_mask(ws, _block_form(8, -1)), monkeypatch)
    assert bool(mask & 1) == singer_cycle_has_one(w)
    assert mask == (1 << 257) - 1
    assert charged == 38_607


def _zero_created(call, mp):
    """The work the placement engine does for call() from a cold cache,
    counted from outside: for each run of `_passes`, ceil(m / 64) words for
    its modulus m and the words of every key its passes return (one per
    started 64 bits of the mask)."""
    created = 0
    passes, place = tori._passes, tori._place

    def counting_passes(states, cs, m):
        nonlocal created
        created += -(-m // 64)
        return passes(states, cs, m)

    def counting_place(*args):
        nonlocal created
        out = place(*args)
        created += sum(-(-mask.bit_length() // 64) for mask in out.values())
        return out

    mp.setattr(tori, "_passes", counting_passes)
    mp.setattr(tori, "_place", counting_place)
    tori._zero.cache_clear()
    return call(), created


def _zero_charged(call, monkeypatch):
    """`_zero_created(call)`, checked to be exactly what the engine charges
    from a cold cache: a work limit one below it refuses, one at it answers."""
    with monkeypatch.context() as mp:
        answer, created = _zero_created(call, mp)
    for limit in (created - 1, created):
        tori._zero.cache_clear()
        with monkeypatch.context() as mp:
            mp.setattr(arith, "WORK_LIMIT", limit)
            if limit < created:
                with pytest.raises(WorkLimitError):
                    call()
            else:
                assert call() == answer
    return answer, created


@pytest.mark.parametrize("n", range(1, 5))
def test_residue_work_bounds_states_created(n, monkeypatch):
    # the charge is exactly the work done, so it bounds the states created
    for w, kind in _modules(n):
        ws = weight_set(w, kind)
        for shape in enumerate_shapes(n):
            _zero_charged(lambda: trivial_constituent(ws, shape), monkeypatch)
            if len(shape.blocks) == 1:
                _zero_charged(lambda: value_mask(ws, _block_form(*shape.blocks[0])), monkeypatch)


def test_residue_work_bounds_large_masks(monkeypatch):
    # blocks of order 65,535: on each block the 16 keys that have placed the
    # 1 hold masks of 1,024 words, the keys holding residue 0 alone one word each
    ws, shape = weight_set(fundamental(32, 1)), TorusShape(((16, 1), (16, 1)))
    answer, charged = _zero_charged(lambda: trivial_constituent(ws, shape), monkeypatch)
    assert not answer and 32 * 1024 <= charged


def test_residue_work_is_counted_before_any_pass(monkeypatch):
    # the first form's ceil(m / 64) words are charged before its first pass
    ws, shape = weight_set(Weight((1, 1, 0, 1))), TorusShape(((2, -1), (2, 1)))
    _, charged = _zero_charged(lambda: trivial_constituent(ws, shape), monkeypatch)
    listed = _listed_residues(_listed(Weight((1, 1, 0, 1)), IRR2), 4)[shape]
    passes = []
    place = tori._place
    monkeypatch.setattr(tori, "_place", lambda *args: passes.append(args) or place(*args))
    monkeypatch.setattr(arith, "WORK_LIMIT", 0)
    tori._zero.cache_clear()
    with pytest.raises(WorkLimitError):
        trivial_constituent(ws, shape)
    assert not passes
    monkeypatch.setattr(arith, "WORK_LIMIT", charged)
    assert trivial_constituent(ws, shape) == ((0, 0) in listed)
    assert passes


def _wide_refused(call, monkeypatch):
    """Whether call() is refused with no `_place` pass run."""
    passes = []
    place = tori._place
    monkeypatch.setattr(tori, "_place", lambda *args: passes.append(args) or place(*args))
    tori._zero.cache_clear()
    with pytest.raises(WorkLimitError):
        call()
    return not passes


def test_wide_block_is_refused_before_any_pass(monkeypatch):
    # a form of modulus 2^40 - 1 would need masks of 2^34 words
    ws = weight_set(fundamental(40, 1))
    assert _wide_refused(lambda: zero_at(ws, _block_form(40, 1)), monkeypatch)


def test_wide_block_value_mask_is_refused_before_any_pass(monkeypatch):
    ws = weight_set(fundamental(40, 1))
    assert _wide_refused(lambda: value_mask(ws, _block_form(40, 1)), monkeypatch)


@st.composite
def _module_on_torus(draw):
    """A torus shape of rank n <= 6 and the weight set of a restricted
    weight of either kind, or of a Weyl module with coefficients up to 2."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from((IRR2, WEYL)))
    coeffs = st.integers(0, 1 if kind is IRR2 or n > 4 else 2)
    w = Weight(tuple(draw(st.lists(coeffs, min_size=n, max_size=n))))
    return weight_set(w, kind), draw(st.sampled_from(enumerate_shapes(n)))


@settings(max_examples=150, deadline=None)
@given(_module_on_torus())
@example((weight_set(Weight((1, 0, 1, 0, 1, 0))), TorusShape(((3, -1), (2, 1), (1, -1)))))
def test_zero_test_matches_residue_engine(case):
    ws, shape = case
    assert trivial_constituent(ws, shape) == ((0,) * len(shape.blocks) in _ref_residues(ws, shape))


@st.composite
def _element_and_module(draw):
    """A torus element of a random shape of rank n <= 5 and the weight set
    of a restricted weight of either kind."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(enumerate_shapes(n)))
    exponents = tuple(draw(st.integers(0, o - 1)) for o in factor_orders(shape))
    w = Weight(tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    return TorusElement(shape, exponents), weight_set(w, draw(st.sampled_from((IRR2, WEYL))))


@settings(max_examples=150, deadline=None)
@given(_element_and_module())
def test_zero_at_matches_member_values(case):
    t, ws = case
    assert zero_at(ws, zero_form(t)) == any(eval_weight(mu, t) == 0 for mu in ws)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_zero_form_is_canonical(data):
    # multiplying a block's generator by 2 or -1 permutes and negates that
    # block's coefficients, and block order is the torus's: the form stays
    g = data.draw(st.sampled_from(enumerate_elements(data.draw(st.integers(1, 5)))))
    us = data.draw(st.sampled_from(list(generator_tuples(g))))
    form = zero_form(to_torus_element(g, us))
    powers = [data.draw(st.sampled_from((1, -1))) * 2 ** data.draw(st.integers(0, 6)) for _ in us]
    moved = tuple(p * u % o for p, u, (_, o, _) in zip(powers, us, g.blocks))
    assert gcd(form[0], *form[1]) == 1 and all(2 * c <= form[0] for c in form[1])
    assert zero_form(to_torus_element(g, moved)) == form
    assert zero_form(to_torus_element(SemisimpleElement(g.blocks[::-1]), moved[::-1])) == form


def test_zero_at_validates_form():
    for read in (zero_at, value_mask):  # one validation for both readers
        with pytest.raises(ValueError):
            read(weight_set(fundamental(2, 1)), (5, (1, 2, 4)))
        with pytest.raises(ValueError):
            read(weight_set(fundamental(2, 1)), (0, (1, 2)))
    assert value_mask(WeightSet(2, []), (5, (1, 2))) == 0  # no weight, no value


def test_zero_work_is_charged_exactly(monkeypatch):
    # w_5 has no trivial constituent on this torus, and no eigenvalue 1 at
    # the element of order 17 * 5 * 3 generating it: all three orbits are
    # followed to the end
    ws, shape = weight_set(fundamental(7, 5)), TorusShape(((4, -1), (2, -1), (1, -1)))
    assert _zero_charged(lambda: trivial_constituent(ws, shape), monkeypatch) == (False, 45)
    form = zero_form(TorusElement(shape, (1, 1, 1)))
    assert form == (255, (15, 30, 51, 60, 85, 102, 120))
    assert _zero_charged(lambda: zero_at(ws, form), monkeypatch) == (False, 172)


def test_wide_block_zero_test_is_refused_before_any_pass(monkeypatch):
    # a block of order 2^40 - 1 would need masks of 2^34 words
    ws, shape = weight_set(fundamental(40, 1)), TorusShape(((40, 1),))
    assert _wide_refused(lambda: trivial_constituent(ws, shape), monkeypatch)


def test_zero_cache_is_bounded():
    assert 0 < tori._zero.cache_info().maxsize < 1 << 20


@pytest.mark.parametrize("n, sets", [(8, 12), (9, 9)])
def test_zero_at_matches_streamed_members(n, sets):
    # past the ranks the listed references reach: every small restricted
    # L(w) of rank n against every distinct form of the elements' generator
    # choices, by one dot product per streamed member
    small = [(w, ws) for w in map(Weight, product((0, 1), repeat=n)) if len(ws := weight_set(w)) <= 5000]
    forms = {f for g in enumerate_elements(n) for f in zero_forms(((d, o) for d, o, _ in g.blocks), units=True)}
    assert len(small) == sets and len(forms) == 2**n  # the zero weight among the sets
    for w, ws in small:
        members = list(ws.member_coords())
        for m, c in forms:
            streamed = any(sum(map(mul, c, mu)) % m == 0 for mu in members)
            assert zero_at(ws, (m, c)) == streamed, (w, (m, c))


@pytest.mark.parametrize("n", [6, 7])
def test_trivial_constituent_matches_streamed_block_sums(n):
    # the multi-block path of the zero kernel against the block residues of
    # every streamed member, one rank past the reference engine's reach
    rng = random.Random(0)
    multi = [sh for sh in enumerate_shapes(n) if len(sh.blocks) > 1]
    outcomes = []
    for w in map(Weight, product((0, 1), repeat=n)):
        if len(ws := weight_set(w)) > 2000:
            continue
        for shape in rng.sample(multi, 8):
            streamed = any(not any(block_sums(EpsWeight(mu), shape)) for mu in ws.member_coords())
            assert trivial_constituent(ws, shape) == streamed, (w, shape)
            outcomes.append(streamed)
    assert True in outcomes and False in outcomes
