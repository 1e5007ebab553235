import ast
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp2n.arith
import sp2n.criteria
from sp2n import tori
from sp2n.arith import WorkLimitError, totient
from sp2n.criteria import (
    NO,
    UNDETERMINED,
    YES,
    FundamentalTwistException,
    HasOne,
    TensorCase,
    abelian_all,
    element_has_one,
    p49_classify,
    p88_guarantee,
    prime_power_all,
    singer_cycle_has_one,
    th7_blocks,
    torus_trivial,
    unisingular,
)
from sp2n.elements import (
    build_element,
    enumerate_elements,
    generator_tuples,
    has_eigenvalue_one_omega_n,
    identity_element,
    singer_cycle,
    singer_index_element,
    to_torus_element,
)
from sp2n.reps import ModuleKind, minkowski_sum, twist_decompose, weight_set
from sp2n.tori import (
    TorusShape,
    enumerate_shapes,
    eval_weight,
    singer_shape,
    trivial_constituent,
    zero_form,
    zero_forms,
)
from sp2n.weights import Weight, delta, fundamental, gamma, zero_weight

IRR2 = ModuleKind.IRREDUCIBLE_2


def _restricted(n):
    return (Weight(bits) for bits in product((0, 1), repeat=n))


def test_abelian_all_examples():
    assert abelian_all(Weight((0, 1, 0))).decision == YES
    assert abelian_all(Weight((1, 0, 0))).decision == NO
    assert abelian_all(Weight((1, 1, 1))).decision == YES
    with pytest.raises(ValueError):
        abelian_all(Weight((2, 0)))


def test_abelian_all_matches_all_torus_sweep():
    for n in range(1, 4):
        shapes = enumerate_shapes(n)
        for w in _restricted(n):
            fast = abelian_all(w).decision == YES
            ws = weight_set(w)
            assert fast == all(trivial_constituent(ws, sh) for sh in shapes), w


def test_unisingular_examples():
    for n in range(2, 6):
        assert unisingular(fundamental(n, n)).decision == NO
    assert unisingular(Weight((1, 0))).decision == NO
    assert unisingular(Weight((1, 1))).decision == YES
    assert unisingular(zero_weight(3)).decision == YES


def test_prime_power_all_examples():
    assert prime_power_all(Weight((0, 1, 0)))
    assert not prime_power_all(Weight((0, 0, 1)))
    assert prime_power_all(zero_weight(3))
    assert not prime_power_all(Weight((1, 0, 0)))
    assert prime_power_all(Weight((1, 1, 0)))


def test_prime_power_consistency_with_direct_evaluation():
    # prime-power-order elements (one nontrivial block plus identity
    # padding) always see eigenvalue 1 on weights passing the guarantee
    for n in range(1, 5):
        for g in enumerate_elements(n):
            nontrivial = [b for b in g.blocks if b[1] > 1]
            if len(nontrivial) > 1 or len(set(_prime_factors(g.order))) > 1:
                continue
            for w in _restricted(n):
                if not prime_power_all(w):
                    continue
                ws = weight_set(w)
                for us in generator_tuples(g):
                    t = to_torus_element(g, us)
                    assert any(eval_weight(mu, t) == 0 for mu in ws), (w, g, us)


def _prime_factors(m):
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def test_singer_cycle_has_one_examples():
    assert not singer_cycle_has_one(fundamental(3, 1))
    assert singer_cycle_has_one(Weight((0, 2, 0)))
    assert singer_cycle_has_one(Weight((1, 1)))
    assert not singer_cycle_has_one(Weight((0, 0, 2)))  # twisted top fundamental
    assert not singer_cycle_has_one(Weight((0, 2)))  # top fundamental at rank 2
    assert singer_cycle_has_one(zero_weight(4))


def test_torus_trivial_examples():
    assert torus_trivial(Weight((0, 1)), singer_shape(2)).decision == NO
    assert torus_trivial(Weight((0, 1)), TorusShape(((2, 1),))).decision == YES
    v = torus_trivial(Weight((1, 0)), TorusShape(((1, -1), (1, 1))))
    assert v.fallback_used
    # the order-1 factor absorbs the second coordinate, so the orbit member
    # e_2 restricts trivially and a trivial constituent exists
    assert v.decision == YES


def test_torus_trivial_fast_paths_match_direct():
    for n in range(1, 4):
        shapes = enumerate_shapes(n)
        for w in _restricted(n):
            ws = weight_set(w)
            for sh in shapes:
                v = torus_trivial(w, sh)
                assert (v.decision == YES) == trivial_constituent(ws, sh), (w, sh)


def test_torus_trivial_validation():
    with pytest.raises(ValueError):
        torus_trivial(Weight((0, 1)), singer_shape(3))
    with pytest.raises(ValueError):
        torus_trivial(Weight((2, 0)), singer_shape(2))


def test_element_has_one_examples():
    g = build_element([(1, 3, -1), (2, 5, -1)])
    assert element_has_one(Weight((0, 1, 1)), g).decision == YES
    assert element_has_one(Weight((1, 0, 1)), g).decision == NO
    assert element_has_one(Weight((0, 1, 0)), g).decision == YES  # radical
    with pytest.raises(ValueError):
        element_has_one(Weight((0, 1)), g)


def test_element_fallback_work_is_counted_before_it_starts(monkeypatch):
    # the units of each block order times its degree: 16 * 4 for w_1 at rank 4
    # on 4:17:-, and 4 * 4 on 4:5:+; the picks times the rank (2 * 4 and 1 * 4)
    # and the zero kernel's mask words stay below
    w = fundamental(4, 1)
    for blocks, expected in [([(4, 17, -1)], 16 * 4), ([(4, 5, 1)], 4 * 4)]:
        g = build_element(blocks)
        size = sum(totient(o) * d for d, o, _ in g.blocks)
        assert size == expected
        tori._zero.cache_clear()
        monkeypatch.setattr(sp2n.arith, "WORK_LIMIT", size - 1)
        with pytest.raises(WorkLimitError):
            element_has_one(w, g)
        monkeypatch.setattr(sp2n.arith, "WORK_LIMIT", size)
        assert element_has_one(w, g).fallback_used


def test_element_forms_match_every_generator_choice():
    # the distinct canonical forms of an element are those of its embeddings
    # at every generator tuple, blocks in any order
    for n in range(1, 7):
        for g in enumerate_elements(n):
            expected = sorted({zero_form(to_torus_element(g, us)) for us in generator_tuples(g)})
            for blocks in (g.blocks, g.blocks[::-1]):
                assert zero_forms(((d, o) for d, o, _ in blocks), units=True) == expected, g


def test_criteria_evaluates_no_residue_rows():
    # the fallbacks reach weights at tori and elements only through the zero kernel
    tree = ast.parse(Path(sp2n.criteria.__file__).read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    evaluators = {"value_mask", "block_sums", "eval_coefficients", "eval_weight"}
    assert imported & evaluators == set()
    assert {"zero_at", "zero_forms", "trivial_constituent"} <= imported
    assert not any(hasattr(tori, name) for name in ("vanishing", "residues", "restricts_trivially"))


def test_element_fallback_matches_direct_evaluation():
    # the fallback's inputs, every element at rank 2..5 against every odd
    # fundamental w_i with i < n, against the reference route: every member
    # evaluated at the embedding of every generator tuple
    cases = tuples = 0
    for n in range(2, 6):
        for g in enumerate_elements(n):
            embeddings = [to_torus_element(g, us) for us in generator_tuples(g)]
            for i in range(1, n, 2):
                w = fundamental(n, i)
                v = element_has_one(w, g)
                assert v.fallback_used, (w, g)
                # enumerated blocks come in canonical order; reversed, they must give the same verdict
                assert element_has_one(w, build_element(g.blocks[::-1])) == v, (w, g)
                found = {any(eval_weight(mu, t) == 0 for mu in weight_set(w)) for t in embeddings}
                expected = YES if found == {True} else NO if found == {False} else UNDETERMINED
                assert v.decision == expected, (w, g)
                cases += 1
                tuples += len(embeddings)
    assert (cases, tuples) == (135, 1462)


def test_element_has_one_never_mixed():
    for n in range(1, 4):
        for g in enumerate_elements(n):
            for w in _restricted(n):
                assert element_has_one(w, g).decision != UNDETERMINED, (w, g)


def test_th7_blocks_examples():
    assert th7_blocks(fundamental(3, 1), [1, 1])
    assert not th7_blocks(Weight((1, 1, 0)), [1, 1, 1])
    assert th7_blocks(zero_weight(3), [2, 1])
    with pytest.raises(ValueError):
        th7_blocks(fundamental(3, 1), [2, 2])
    with pytest.raises(ValueError):
        th7_blocks(fundamental(3, 1), [0, 1])


def test_th7_unit_blocks_iff_delta_below_count():
    from sp2n.weights import dominant_weights_up_to

    for n in range(1, 5):
        for w in dominant_weights_up_to(n, 6):
            kinds = [ModuleKind.WEYL] + ([IRR2] if w.is_restricted() else [])
            for kind in kinds:
                for k in range(1, n + 1):
                    assert th7_blocks(w, [1] * k, kind) == (delta(w) < k), (w, kind, k)


def test_tensor_weight_support_bound():
    # a tensor product of up to three restricted factors with total delta
    # below n has every weight supported on at most that many coordinates
    from itertools import combinations_with_replacement

    for n in range(2, 6):
        pool = [w for w in _restricted(n) if 1 <= delta(w) < n]
        for size in (1, 2, 3):
            for factors in combinations_with_replacement(pool, size):
                total = sum(delta(f) for f in factors)
                if total >= n:
                    continue
                ws = weight_set(factors[0])
                for f in factors[1:]:
                    ws = minkowski_sum(ws, weight_set(f))
                for mu in ws:
                    assert sum(1 for c in mu.coords if c) <= total, (factors, mu)


def test_p88_examples():
    assert p88_guarantee(identity_element(2))
    assert not p88_guarantee(singer_cycle(2))
    assert not p88_guarantee(build_element([(3, 7, 1)]))
    assert p88_guarantee(build_element([(2, 3, 1), (1, 1, 1)]))


def test_p88_natural_module_leg_is_the_identity_block_test():
    # the omega_1 leg, read from the blocks, against the direct evaluation
    for n in range(1, 8):
        for g in enumerate_elements(n):
            direct = element_has_one(fundamental(n, 1), g).decision == YES
            assert p88_guarantee(g) == (direct and has_eigenvalue_one_omega_n(g)), g


def test_p49_examples():
    g = build_element([(1, 3, -1), (2, 5, -1)])  # Singer index 2
    assert isinstance(p49_classify(Weight((0, 2, 0)), g), HasOne)
    out = p49_classify(Weight((4, 0, 0)), g)
    assert isinstance(out, FundamentalTwistException) and out.index == 1
    out = p49_classify(Weight((1, 0, 2)), g)
    assert isinstance(out, TensorCase)
    assert out.base == fundamental(3, 1)
    assert out.twist_level == 1
    assert out.base_delta == 1
    # the same weight against a Singer-index-1 element is covered
    s = singer_cycle(3)
    assert isinstance(p49_classify(Weight((1, 0, 2)), s), HasOne)
    assert isinstance(p49_classify(zero_weight(3), g), HasOne)
    out = p49_classify(Weight((0, 0, 4)), g)
    assert isinstance(out, FundamentalTwistException) and out.index == 3


def test_p49_hasone_is_sound():
    # whenever the classifier promises eigenvalue 1, direct evaluation of
    # the effective weight set at every embedding finds a zero value
    from sp2n.reps import g_effective_weight_set

    for n in range(1, 4):
        elements = enumerate_elements(n)
        for coeffs in product(range(3), repeat=n):
            w = Weight(coeffs)
            ws = g_effective_weight_set(w)
            for g in elements:
                if not isinstance(p49_classify(w, g), HasOne):
                    continue
                for us in generator_tuples(g):
                    t = to_torus_element(g, us)
                    assert any(eval_weight(mu, t) == 0 for mu in ws), (w, g, us)


# The twisted-weight verdicts as they read the twist decomposition, before the
# closed forms on the coefficients' binary digits: the reference for the rewrite.


def _ref_prime_power_all(w):
    if gamma(w) != 1:
        return True
    i = delta(w)
    return not (i % 2 == 1 or i == w.rank)


def _ref_singer_cycle_has_one(w):
    comps = twist_decompose(w)
    if len(comps) != 1:
        return True
    mu = comps[0][1]
    if gamma(mu) != 1:
        return True
    i = delta(mu)
    return not (i % 2 == 1 or i == w.rank)


def _ref_p49_classify(w, g):
    n = w.rank
    comps = twist_decompose(w)
    if not comps:
        return HasOne(("Lem-pr4",))
    if len(comps) == 1 and gamma(comps[0][1]) == 1:
        i = delta(comps[0][1])
        if i % 2 == 1 or i == n:
            return FundamentalTwistException(i, ("Prop-p49", "Thm-th2"))
    top_levels = [lvl for lvl, mu in comps if mu.coeffs[-1] == 1]
    if not top_levels:
        return HasOne(("Thm-si1", "Lem-cc2", "Lem-ft2"))
    if len(top_levels) >= 2:
        return HasOne(("Cor-wwn",))
    wn = fundamental(n, n)
    nus = [(lvl, mu - wn if lvl in top_levels else mu) for lvl, mu in comps]
    nus = [(lvl, nu) for lvl, nu in nus if not nu.is_zero()]
    d = sum(delta(nu) for _, nu in nus)
    if d >= singer_index_element(g):
        return HasOne(("Thm-fr1", "Lem-tp1"))
    base = Weight((0,) * n)
    for lvl, nu in nus:
        base = base + (2**lvl) * nu
    return TensorCase(base, top_levels[0], d, ("Prop-p49",))


# coefficients below 2^6, with powers of two drawn often enough to reach the
# exception family and the tensor case
_twisted_coeffs = st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.one_of(st.sampled_from((0, 1, 2, 4, 8, 16, 32)), st.integers(0, 63))] * n))


@settings(deadline=None, max_examples=300)
@given(_twisted_coeffs)
def test_twisted_verdicts_match_twist_decomposition(coeffs):
    w = Weight(coeffs)
    assert singer_cycle_has_one(w) == _ref_singer_cycle_has_one(w)
    restricted = Weight(tuple(a & 1 for a in coeffs))
    assert prime_power_all(restricted) == _ref_prime_power_all(restricted)
    for g in enumerate_elements(w.rank):
        assert p49_classify(w, g) == _ref_p49_classify(w, g), g


def test_verdict_payload():
    v = unisingular(Weight((1, 1)))
    assert v.to_dict() == {
        "decision": "yes",
        "citations": ["Thm-si1", "Thm-fr1"],
        "fallback_used": False,
    }
