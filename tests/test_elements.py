from math import gcd, prod

import time

import pytest

import sp2n.arith
from sp2n.arith import WorkLimitError, totient
from sp2n.elements import (
    build_element,
    enumerate_elements,
    gamma_graph,
    generator_tuples,
    has_eigenvalue_one_omega_n,
    identity_element,
    max_singer_element,
    omega_n_eigenvalue_orders,
    parse_element,
    singer_cycle,
    singer_height,
    singer_height_fast,
    singer_index_element,
    to_torus_element,
    valid_blocks,
)
from sp2n.tori import eval_weight, factor_orders
from sp2n.weights import fundamental, to_eps, weyl_orbit


def test_build_element_examples():
    assert build_element([(1, 3, -1)]).blocks == ((1, 3, -1),)
    with pytest.raises(ValueError):
        build_element([(2, 3, -1)])  # order of 2 mod 3 is 2, not 4
    assert build_element([(1, 1, 1)]).blocks == ((1, 1, 1),)


def test_build_element_rejects_bad_blocks():
    with pytest.raises(ValueError):
        build_element([(1, 4, -1)])  # 4 does not divide 3
    with pytest.raises(ValueError):
        build_element([(1, 1, -1)])  # identity block must carry plus sign
    with pytest.raises(ValueError):
        build_element([(2, 1, 1)])
    with pytest.raises(ValueError):
        build_element([(3, 3, -1)])  # non-minimal: splits off a rank-1 piece
    with pytest.raises(ValueError):
        build_element([])
    assert build_element([(4, 5, 1)]).rank == 4  # order 5 acting via dual 4-dim pairs


def test_gamma_graph_examples():
    g = build_element([(1, 3, -1), (2, 5, -1)])
    graph = gamma_graph(g)
    assert graph.edges == frozenset()
    assert graph.singular == (0, 1)

    assert gamma_graph(build_element([(3, 7, 1)])).singular == ()
    assert gamma_graph(build_element([(1, 1, 1)])).singular == ()

    linked = build_element([(1, 3, -1), (3, 9, -1)])
    graph = gamma_graph(linked)
    assert graph.edges == frozenset({(0, 1)})
    assert graph.singular == ()


def test_singer_index_element():
    for n in range(1, 7):
        assert singer_index_element(singer_cycle(n)) == 1
    assert singer_index_element(build_element([(1, 3, -1), (2, 5, -1)])) == 2
    assert singer_index_element(identity_element(3)) == 0


def test_singer_height_examples():
    assert singer_height(1) == (1, frozenset({1}))
    assert singer_height(3) == (2, frozenset({1, 2}))
    assert singer_height(7) == (3, frozenset({1, 2, 4}))
    with pytest.raises(ValueError):
        singer_height(0)


def test_singer_height_table():
    expected = {3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 3, 10: 3, 11: 3}
    for n, v in expected.items():
        assert singer_height(n)[0] == v


def test_singer_height_monotone_and_fast_path():
    prev = 0
    for n in range(1, 31):
        value, witness = singer_height(n)
        assert value >= prev
        prev = value
        assert singer_height_fast(n)[0] == value, n
        vals = [2**p + 1 for p in witness]
        assert sum(witness) <= n
        assert all(gcd(a, b) == 1 for i, a in enumerate(vals) for b in vals[i + 1:])


def test_max_singer_element_examples():
    assert max_singer_element(3).blocks == ((1, 3, -1), (2, 5, -1))
    assert max_singer_element(4).blocks == ((1, 3, -1), (2, 5, -1), (1, 1, 1))
    assert max_singer_element(1).blocks == ((1, 3, -1),)
    for n in range(1, 12):
        g = max_singer_element(n)
        assert g.rank == n
        assert singer_index_element(g) == singer_height(n)[0]
    # holds the block (64, 2^64 + 1, -1); 2^64 + 1 cannot be factored within the bound
    assert (64, 2**64 + 1, -1) in max_singer_element(150).blocks


def test_singer_index_is_bounded_by_height():
    for n in range(1, 5):
        cap = singer_height(n)[0]
        best = 0
        for g in enumerate_elements(n):
            si = singer_index_element(g)
            assert si <= cap, g
            best = max(best, si)
        assert best == cap


def test_omega_n_eigenvalue_orders_examples():
    assert omega_n_eigenvalue_orders(singer_cycle(2)) == frozenset({5})
    g = build_element([(1, 3, -1), (2, 5, -1)])
    assert omega_n_eigenvalue_orders(g) == frozenset({15})
    h = build_element([(3, 7, 1)])
    assert omega_n_eigenvalue_orders(h) == frozenset({1, 7})


def test_full_order_always_appears():
    for n in range(1, 5):
        for g in enumerate_elements(n):
            orders = omega_n_eigenvalue_orders(g)
            assert g.order in orders, g
            assert all(g.order % e == 0 for e in orders), g


def test_has_eigenvalue_one_omega_n():
    assert not has_eigenvalue_one_omega_n(singer_cycle(3))
    assert has_eigenvalue_one_omega_n(build_element([(3, 7, 1)]))
    assert has_eigenvalue_one_omega_n(identity_element(2))


def test_to_torus_element_examples():
    t = to_torus_element(build_element([(1, 3, -1)]))
    assert t.shape.blocks == ((1, -1),)
    assert t.exponents == (1,)

    t = to_torus_element(build_element([(2, 5, -1)]))
    assert t.shape.blocks == ((2, -1),)
    assert t.exponents == (1,)

    t = to_torus_element(identity_element(3))
    assert t.exponents == (0, 0, 0)

    # an order-5 element inside the cyclic factor of order 15
    t = to_torus_element(build_element([(4, 5, 1)]))
    assert factor_orders(t.shape) == (15,)
    assert t.exponents == (3,)
    assert t.order == 5


def test_to_torus_element_block_orders():
    for n in range(1, 5):
        for g in enumerate_elements(n):
            t = to_torus_element(g)
            assert t.order == g.order, g


def test_generator_tuple_count_is_a_totient_product():
    for n in range(1, 5):
        for g in enumerate_elements(n):
            assert len(list(generator_tuples(g))) == prod(totient(o) for _, o, _ in g.blocks), g


def _reference_elements(n):
    # the recursive enumeration the block-multiset generator replaced: blocks
    # in (-d, sign, -o) order, each at or after the one before it
    out = []

    def rec(remaining, bound, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for d in range(remaining, 0, -1):
            for b in valid_blocks(d):
                if bound is not None and _block_key(b) < _block_key(bound):
                    continue
                acc.append(b)
                rec(remaining - d, b, acc)
                acc.pop()

    rec(n, None, [])
    return out


def _block_key(b):
    d, o, s = b
    return (-d, s, -o)


def test_enumerate_elements_matches_reference_recursion():
    counts = []
    for n in range(1, 11):
        listed = [g.blocks for g in enumerate_elements(n)]
        assert sorted(listed) == sorted(_reference_elements(n)), n
        counts.append(len(listed))
    assert counts == [2, 5, 10, 21, 39, 75, 132, 236, 405, 695]


def test_enumerate_elements_charges_what_it_lists(monkeypatch):
    for n in range(1, 9):
        size = len(enumerate_elements(n))
        with monkeypatch.context() as mp:
            mp.setattr(sp2n.arith, "WORK_LIMIT", size - 1)
            with pytest.raises(WorkLimitError):
                enumerate_elements(n)
            mp.setattr(sp2n.arith, "WORK_LIMIT", size)
            assert len(enumerate_elements(n)) == size
    started = time.perf_counter()
    with pytest.raises(WorkLimitError):
        enumerate_elements(28)  # 1,139,490 block multisets
    assert time.perf_counter() - started < 1


def test_singer_height_search_is_bounded():
    # the charge counts bits of gcd work, n per part tried, so a large n is
    # refused after a few parts (CPU time, a few milliseconds at most)
    for n in (400, 1000, 10**4):
        started = time.process_time()
        with pytest.raises(WorkLimitError):
            singer_height(n)
        assert time.process_time() - started < 0.1, n


def test_generator_tuples_refused_before_listing_units():
    started = time.perf_counter()
    with pytest.raises(WorkLimitError):
        generator_tuples(singer_cycle(30))  # phi(2^30 + 1) = 760,320,000 tuples
    assert time.perf_counter() - started < 1


def test_to_torus_element_rejects_bad_generators():
    g = build_element([(2, 5, -1)])
    with pytest.raises(ValueError):
        to_torus_element(g, (5,))
    with pytest.raises(ValueError):
        to_torus_element(g, (1, 1))


def test_spectrum_matches_direct_evaluation():
    from math import lcm

    for n in range(1, 4):
        orbit = weyl_orbit(to_eps(fundamental(n, n)))
        for g in enumerate_elements(n):
            predicted = omega_n_eigenvalue_orders(g)
            for us in generator_tuples(g):
                t = to_torus_element(g, us)
                L = lcm(*factor_orders(t.shape))
                realized = frozenset(L // gcd(L, eval_weight(mu, t)) for mu in orbit)
                assert realized == predicted, (g, us)


def test_singular_part_determines_top_verdicts():
    # replacing an element by the product of its singular blocks (padded by
    # identity blocks) preserves the Singer index, hence all verdicts that
    # depend only on it
    from sp2n.criteria import element_has_one
    from sp2n.weights import Weight
    from itertools import product as iproduct

    for n in range(1, 5):
        for g in enumerate_elements(n):
            singular = gamma_graph(g).singular
            blocks = [g.blocks[i] for i in singular]
            pad = n - sum(b[0] for b in blocks)
            h = build_element(tuple(blocks) + ((1, 1, 1),) * pad)
            assert singer_index_element(h) == singer_index_element(g)
            for bits in iproduct((0, 1), repeat=n - 1):
                w = Weight(bits + (1,))
                assert (
                    element_has_one(w, g).decision == element_has_one(w, h).decision
                ), (w, g)


def test_parse_element():
    g = parse_element("1:3:-;2:5:-")
    assert g.blocks == ((1, 3, -1), (2, 5, -1))
    assert str(g) == "1:3:-;2:5:-"
    with pytest.raises(ValueError):
        parse_element("1:3")
    with pytest.raises(ValueError):
        parse_element("1:3:x")
