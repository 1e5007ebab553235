import time
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp2n.arith
from sp2n.arith import WorkLimitError, partition_counts
from sp2n.reps import ModuleKind, weight_set
from sp2n.tori import (
    TorusElement,
    TorusShape,
    block_sums,
    enumerate_shapes,
    eval_coefficients,
    eval_weight,
    factor_orders,
    occurs_in_omega_n,
    parse_torus_label,
    singer_index,
    singer_shape,
    t_sharp,
    torus_order,
    trivial_constituent,
    unisingular_on_torus,
    zero_form,
    zero_forms,
)
from sp2n.weights import (
    EpsWeight,
    Weight,
    WeightSet,
    fundamental,
    gamma,
    is_radical,
    to_eps,
    weyl_orbit,
)

IRR2 = ModuleKind.IRREDUCIBLE_2


def test_shape_canonical_order_and_validation():
    assert TorusShape(((1, 1), (2, -1))).blocks == ((2, -1), (1, 1))
    assert TorusShape(((1, 1), (1, -1))).blocks == ((1, -1), (1, 1))
    with pytest.raises(ValueError):
        TorusShape(((0, 1),))
    with pytest.raises(ValueError):
        TorusShape(((2, 0),))


def test_enumerate_shapes_examples():
    assert [str(sh) for sh in enumerate_shapes(1)] == ["-1", "1"]
    assert [str(sh) for sh in enumerate_shapes(2)] == ["-2", "2", "-1,-1", "-1,1", "1,1"]
    for n in range(1, 7):
        shapes = enumerate_shapes(n)
        assert len(shapes) == len(set(shapes))
        assert t_sharp(n) in shapes
        assert all(sh.rank == n for sh in shapes)
    with pytest.raises(ValueError):
        enumerate_shapes(0)


def _signed_partition_count(n):
    # coefficient of x^n in prod_k 1/(1-x^k)^2
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(2):
            for m in range(k, n + 1):
                counts[m] += counts[m - k]
    return counts[n]


def test_enumerate_shapes_count_matches_generating_function(monkeypatch):
    for n in range(1, 13):
        size = len(enumerate_shapes(n))
        assert size == _signed_partition_count(n), n
        p = partition_counts(n, n)
        assert size == sum(p[j] * p[n - j] for j in range(n + 1)), n
        # the work check counts exactly the shapes it then lists
        with monkeypatch.context() as mp:
            mp.setattr(sp2n.arith, "WORK_LIMIT", size - 1)
            with pytest.raises(WorkLimitError):
                enumerate_shapes(n)
            mp.setattr(sp2n.arith, "WORK_LIMIT", size)
            assert len(enumerate_shapes(n)) == size


def _reference_partitions(n, max_part):
    # the partitions of n with parts at most max_part, largest part first, largest partition first
    if n == 0:
        return [[]]
    return [[k] + rest for k in range(min(n, max_part), 0, -1) for rest in _reference_partitions(n - k, k)]


def _reference_shapes(n):
    shapes = []
    for parts in _reference_partitions(n, n):
        sizes = sorted(set(parts), reverse=True)
        counts = [parts.count(k) for k in sizes]
        for minus in product(*(range(c, -1, -1) for c in counts)):
            blocks = []
            for k, c, m in zip(sizes, counts, minus):
                blocks += [(k, -1)] * m + [(k, 1)] * (c - m)
            shapes.append(TorusShape(tuple(blocks)))
    return shapes


def test_enumerate_shapes_matches_reference_recursion():
    for n in range(1, 15):
        assert enumerate_shapes(n) == _reference_shapes(n), n


def test_torus_order_examples():
    for n in range(1, 8):
        assert torus_order(singer_shape(n)) == 2**n + 1
    assert torus_order(t_sharp(3)) == 27
    assert torus_order(TorusShape(((1, 1), (1, 1)))) == 1


def test_singer_index_examples():
    assert singer_index(singer_shape(2)) == 1
    assert singer_index(t_sharp(4)) == 4
    assert singer_index(TorusShape(((2, 1), (1, 1)))) == 0


def test_block_sums_examples():
    sh = singer_shape(2)
    assert block_sums(EpsWeight((1, 0)), sh) == (1,)
    assert block_sums(EpsWeight((1, 1)), sh) == (3,)
    assert block_sums(EpsWeight((0, 0, 0)), t_sharp(3)) == (0, 0, 0)
    assert block_sums(EpsWeight((3,)), TorusShape(((1, -1),))) == (0,)  # 3 wraps to 0 modulo 3
    with pytest.raises(ValueError):
        block_sums(EpsWeight((1, 0, 0)), sh)


def test_trivial_constituent_examples():
    ws2 = weight_set(fundamental(2, 2), IRR2)
    assert not trivial_constituent(ws2, singer_shape(2))
    assert trivial_constituent(ws2, TorusShape(((1, 1), (1, 1))))
    with_zero = WeightSet(2, ((0, 0), (1, 0)))
    for sh in enumerate_shapes(2):
        assert trivial_constituent(with_zero, sh)


def test_occurs_in_omega_n():
    assert occurs_in_omega_n((3,), singer_shape(2))
    assert not occurs_in_omega_n((0,), singer_shape(2))
    assert occurs_in_omega_n((0,), TorusShape(((2, 1),)))
    with pytest.raises(ValueError):
        occurs_in_omega_n((0, 0), singer_shape(2))


def test_omega_n_residue_tuples_match_sign_pattern():
    # the orbit of the top fundamental weight realizes exactly the tuples
    # that are nonzero on every negative block
    for n in range(1, 5):
        orbit = weyl_orbit(to_eps(fundamental(n, n)))
        for sh in enumerate_shapes(n):
            if torus_order(sh) > 10**4:
                continue
            realized = {block_sums(mu, sh) for mu in orbit}
            expected = {
                tup
                for tup in product(*(range(o) for o in factor_orders(sh)))
                if occurs_in_omega_n(tup, sh)
            }
            assert realized == expected, sh


def test_eval_weight_examples():
    t = TorusElement(singer_shape(2), (1,))
    assert eval_weight(EpsWeight((1, 0)), t) == 1
    ident = TorusElement(TorusShape(((1, -1), (1, -1))), (0, 0))
    assert eval_weight(EpsWeight((1, -1)), ident) == 0
    assert eval_weight(EpsWeight((0, 0)), t) == 0


@st.composite
def _element_and_weight(draw):
    """A torus element of a random shape of rank at most 6 and an epsilon weight of that rank."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(enumerate_shapes(n)))
    exponents = tuple(draw(st.integers(0, o - 1)) for o in factor_orders(shape))
    mu = EpsWeight(tuple(draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))))
    return TorusElement(shape, exponents), mu


@settings(max_examples=200, deadline=None)
@given(_element_and_weight())
def test_dot_product_matches_block_residues(case):
    t, mu = case
    L, c = eval_coefficients(t)
    assert L == lcm(*factor_orders(t.shape)) and len(c) == t.shape.rank
    value = sum(x * m for x, m in zip(c, mu.coords)) % L
    assert value == eval_weight(mu, t)
    rs = block_sums(mu, t.shape)
    # the block-residue evaluation written out with its own coefficients
    assert value == sum(L // o * m * r for o, m, r in zip(factor_orders(t.shape), t.exponents, rs)) % L


def test_eval_weight_rank_mismatch():
    with pytest.raises(ValueError):
        eval_weight(EpsWeight((1, 0, 0)), TorusElement(singer_shape(2), (1,)))


def test_torus_element_validation():
    with pytest.raises(ValueError):
        TorusElement(singer_shape(2), (5,))
    with pytest.raises(ValueError):
        TorusElement(singer_shape(2), (1, 1))
    assert TorusElement(singer_shape(3), (3,)).order == 3


def test_unisingular_on_torus_examples():
    assert not unisingular_on_torus(weight_set(fundamental(2, 1), IRR2), singer_shape(2))
    with_zero = WeightSet(2, ((0, 0),))
    assert unisingular_on_torus(with_zero, singer_shape(2))
    assert unisingular_on_torus(weight_set(Weight((1, 1)), IRR2), singer_shape(2))


def test_sweep_limit_enforced():
    # 20 coefficients for each of the 1,048,575 exponents of the torus 20 are
    # over the work limit of 10^6
    ws = weight_set(fundamental(20, 1), IRR2)
    with pytest.raises(WorkLimitError):
        unisingular_on_torus(ws, TorusShape(((20, 1),)))
    # 13,13,13: 8191 values times 13 pass the first charge, then 316 multisets
    # taken 3 at a time make 5,259,030 picks of 39 coefficients, refused unbuilt
    started = time.perf_counter()
    with pytest.raises(WorkLimitError, match="form picks"):
        unisingular_on_torus(weight_set(fundamental(39, 1), IRR2), parse_torus_label("13,13,13"))
    assert time.perf_counter() - started < 2


def test_sweep_limit_counts_rows():
    # w_1 + w_12 has 6,146 residue rows on the 6,147 elements of -11,-1; the
    # sweep tests only the distinct zero forms of the elements
    ws = weight_set(Weight((1,) + (0,) * 10 + (1,)), IRR2)
    started = time.perf_counter()
    assert unisingular_on_torus(ws, parse_torus_label("-11,-1"))
    assert time.perf_counter() - started < 2
    # both answers are those of the row-by-row sweep without its work limit
    assert unisingular_on_torus(weight_set(Weight((1,) + (0,) * 8 + (1,)), IRR2), parse_torus_label("-9,-1"))


def test_form_picks_are_counted_before_they_are_built():
    # -1^4: the multisets (0,) and (1,) taken 4 at a time, C(5, 4) = 5 picks
    # times rank 4; -1^3,2: C(4, 3) * 2 picks times rank 5; the 3 and 13
    # values times degrees charged first stay below
    for blocks, size, forms in [([(1, 3)] * 4, 5 * 4, 5), ([(1, 3)] * 3 + [(2, 5)], 8 * 5, 8)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sp2n.arith, "WORK_LIMIT", size - 1)
            with pytest.raises(WorkLimitError, match="form picks"):
                zero_forms(blocks, units=False)
            mp.setattr(sp2n.arith, "WORK_LIMIT", size)
            assert len(zero_forms(blocks, units=False)) == forms


def test_torus_forms_match_every_element():
    # the distinct canonical forms of a torus are those of its elements one by one
    for n in range(1, 6):
        for sh in enumerate_shapes(n):
            elements = product(*(range(o) for o in factor_orders(sh)))
            expected = sorted({zero_form(TorusElement(sh, e)) for e in elements})
            assert zero_forms(((k, 2**k - s) for k, s in sh.blocks), units=False) == expected, sh


def test_singer_torus_misses_odd_fundamentals():
    # on the cyclic torus of order 2^n + 1, the fundamental modules without
    # a trivial constituent are exactly the last one and the odd ones
    for n in range(1, 9):
        sh = singer_shape(n)
        for i in range(1, n + 1):
            ws = weight_set(fundamental(n, i), IRR2)
            expected_missing = i == n or i % 2 == 1
            assert trivial_constituent(ws, sh) == (not expected_missing), (n, i)


def test_orbit_character_of_w1_plus_w2():
    # the orbit of w_1 + w_2 has no trivially-restricting member exactly on
    # the all-unit-block shapes with at least n-1 negative blocks
    for n in range(2, 5):
        lam = fundamental(n, 1) + fundamental(n, 2)
        orbit = weyl_orbit(to_eps(lam))
        for sh in enumerate_shapes(n):
            fails = not trivial_constituent(orbit, sh)
            all_units = all(k == 1 for k, _ in sh.blocks)
            expected = all_units and singer_index(sh) >= n - 1
            assert fails == expected, sh


def test_module_of_w1_plus_w2_on_tori():
    # at the module level the restriction misses a trivial constituent only
    # on the all-order-3 torus, yet every single element still has a fixed
    # vector there (each lies in another torus too): the sweep stays clean
    for n in range(2, 5):
        lam = fundamental(n, 1) + fundamental(n, 2)
        ws = weight_set(lam, IRR2)
        for sh in enumerate_shapes(n):
            assert trivial_constituent(ws, sh) == (sh != t_sharp(n)), sh
            assert unisingular_on_torus(ws, sh), sh


def test_t_sharp_closed_form():
    # trivial constituent on the all-order-3 torus: radical or coefficient
    # sum above 2 when the top coefficient vanishes, delta at least 2n
    # otherwise
    for n in range(1, 6):
        sh = t_sharp(n)
        for bits in product((0, 1), repeat=n):
            w = Weight(bits)
            ws = weight_set(w, IRR2)
            got = trivial_constituent(ws, sh)
            if bits[-1] == 0:
                expected = is_radical(w) or gamma(w) > 2
            else:
                expected = sum(i * a for i, a in enumerate(bits, 1)) >= 2 * n
            assert got == expected, w


def test_parse_torus_label():
    sh = parse_torus_label("-3,2,1")
    assert sh.blocks == ((3, -1), (2, 1), (1, 1))
    assert str(sh) == "-3,2,1"
    with pytest.raises(ValueError):
        parse_torus_label("0,1")
    with pytest.raises(ValueError):
        parse_torus_label("x")
