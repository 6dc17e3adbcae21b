import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalog_algebras
from oracle import (FnMap, add, agrees_with_tensor, bilinear, identity,
                    induced_product, neg, oracle_bar, oracle_bracket,
                    oracle_circ, random_tensor, tensors_equal, vec_mat, zeros)
from rbx.algebra import assoc_check, canonical_bimodule
from rbx.errors import CapacityError, InputError
from rbx.fields import F5, QQ, PrimeField
from rbx.gerstenhaber import (MultiMap, bar_circ, circ_i, derived_bracket,
                              from_algebra, g_bracket, jacobi_residual)
from rbx.instances import kx2
from rbx import linalg
from rbx.linalg import Encoded, IntTensor, is_zero
from rbx.operators import lift_operator, semidirect_mult_map


def rand_map(dim, arity, field, rng):
    return MultiMap(field, random_tensor((dim,) * arity + (dim,), field, rng))


def to_fn(mm):
    return FnMap.from_tensor(mm.field, mm.tensor)


# ---------------------------------------------------------------------------
# compositions

def test_circ_arity_one_is_matrix_composition():
    rng = random.Random(21)
    f = rand_map(3, 1, QQ, rng)
    g = rand_map(3, 1, QQ, rng)
    comp = circ_i(f, g, 1)
    # (f o g)(v) = f(g(v)): row convention composes as g.matrix @ f.matrix
    assert tensors_equal(comp.tensor, np.dot(g.tensor, f.tensor))


def test_circ_spot_value_mu_pi(mult_by_x_q):
    # mu^ o_1 pi^ applied to ((0,m),(b,0)) gives (p(m) b, 0)
    mu_hat = semidirect_mult_map(mult_by_x_q)
    p_hat = lift_operator(mult_by_x_q)
    comp = circ_i(mu_hat, p_hat, 1)
    A = mult_by_x_q.algebra
    # m = e0 (the constant 1), b = e0: p(1) * 1 = x = e1 in the A-block
    vec = comp.tensor[2, 0]
    expected = zeros(4, QQ)
    expected[1] = QQ.one
    assert tensors_equal(vec, expected)


def test_circ_matches_oracle_on_arity_two_pairs():
    rng = random.Random(22)
    for _ in range(5):
        f = rand_map(3, 2, QQ, rng)
        g = rand_map(3, 2, QQ, rng)
        for i in (1, 2):
            engine = circ_i(f, g, i)
            assert agrees_with_tensor(oracle_circ(to_fn(f), to_fn(g), i),
                                      engine.tensor)


def test_circ_index_and_cap_errors():
    rng = random.Random(23)
    f = rand_map(2, 2, QQ, rng)
    g = rand_map(2, 2, QQ, rng)
    with pytest.raises(InputError):
        circ_i(f, g, 3)
    h = rand_map(2, 3, QQ, rng)
    with pytest.raises(CapacityError):
        circ_i(h, h, 1)  # arity 3+3-1 = 5 > 4


@pytest.mark.parametrize("other", [PrimeField(7), QQ], ids=["F7", "Q"])
def test_circ_refuses_maps_over_different_fields(other):
    rng = random.Random(28)
    f = rand_map(2, 2, F5, rng)
    g = rand_map(2, 1, other, rng)
    for a, b in ((f, g), (g, f)):
        with pytest.raises(InputError, match="different fields"):
            circ_i(a, b, 1)


def test_bar_circ_arity_one_signs():
    # n = 1: all signs +1
    rng = random.Random(24)
    f = rand_map(2, 3, QQ, rng)
    g = rand_map(2, 1, QQ, rng)
    explicit = circ_i(f, g, 1) + circ_i(f, g, 2) + circ_i(f, g, 3)
    assert tensors_equal(bar_circ(f, g).tensor, explicit.tensor)


def test_bar_circ_two_two_signs():
    # m = n = 2: f ob g = f o_1 g - f o_2 g
    rng = random.Random(25)
    f = rand_map(2, 2, QQ, rng)
    g = rand_map(2, 2, QQ, rng)
    explicit = circ_i(f, g, 1) - circ_i(f, g, 2)
    assert tensors_equal(bar_circ(f, g).tensor, explicit.tensor)


def test_mu_bar_pi_matches_term_expansion(mult_by_x_q):
    # mu^ ob pi^ = mu^(pi^ (x) id) + mu^(id (x) pi^), term by term
    mu_hat = semidirect_mult_map(mult_by_x_q)
    p_hat = lift_operator(mult_by_x_q)
    lhs = bar_circ(mu_hat, p_hat)
    rhs = circ_i(mu_hat, p_hat, 1) + circ_i(mu_hat, p_hat, 2)
    assert tensors_equal(lhs.tensor, rhs.tensor)
    assert agrees_with_tensor(oracle_bar(to_fn(mu_hat), to_fn(p_hat)), lhs.tensor)


# ---------------------------------------------------------------------------
# the bracket

def test_bracket_arity_one_is_commutator():
    rng = random.Random(26)
    f = rand_map(3, 1, QQ, rng)
    g = rand_map(3, 1, QQ, rng)
    br = g_bracket(f, g)
    direct = np.dot(g.tensor, f.tensor) - np.dot(f.tensor, g.tensor)
    assert tensors_equal(br.tensor, direct)


def test_bracket_mu_mu_zero_for_catalog_algebras():
    for name, A in catalog_algebras():
        mu = from_algebra(A)
        assert g_bracket(mu, mu).is_zero_map(), name


def test_bracket_mu_beta_derivation_formula(kx2_q):
    # [mu, beta](a,b) = beta(a)b + a beta(b) - beta(ab); for beta = x. the
    # value at (e0, e0) is x + x - x = x
    beta = MultiMap(QQ, np.array(
        [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]], dtype=object))
    mu = from_algebra(kx2_q)
    br = g_bracket(mu, beta)
    assert br.tensor[0, 0, 0] == 0 and br.tensor[0, 0, 1] == 1
    assert agrees_with_tensor(oracle_bracket(to_fn(mu), to_fn(beta)), br.tensor)


def test_bracket_matches_oracle_mixed_arities():
    rng = random.Random(27)
    for field in (QQ, F5):
        for (m, n) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            f = rand_map(2, m, field, rng)
            g = rand_map(2, n, field, rng)
            engine = g_bracket(f, g)
            assert agrees_with_tensor(oracle_bracket(to_fn(f), to_fn(g)),
                                      engine.tensor)


# ---------------------------------------------------------------------------
# derived bracket

def test_derived_bracket_grb_residual_is_zero(mult_by_x_q):
    p_hat = lift_operator(mult_by_x_q)
    mu_hat = semidirect_mult_map(mult_by_x_q)
    assert derived_bracket(p_hat, p_hat, mu_hat).is_zero_map()


def test_derived_bracket_explicit_formula():
    # (1/2)[p^,p^]_mu^((a,m),(b,n)) = (p(m)p(n) - p(p(m).n) - p(m.p(n)), 0)
    from rbx.instances import kx2
    from rbx.operators import OperatorInstance

    A = kx2(QQ)
    M = canonical_bimodule(A)
    rng = random.Random(28)
    pi = random_tensor((2, 2), QQ, rng)
    inst = OperatorInstance(A, M, pi)
    half = derived_bracket(lift_operator(inst), lift_operator(inst),
                           semidirect_mult_map(inst)).scale(Fraction(1, 2))
    for i in range(2):
        for j in range(2):
            induced = induced_product(pi, M.left, M.right, i, j, QQ)
            a_part = add(bilinear(A.c, pi[i], pi[j], QQ),
                         neg(vec_mat(induced, pi, QQ)))
            got = half.tensor[2 + i, 2 + j]
            assert tensors_equal(got[:2], a_part)
            assert is_zero(got[2:])


def test_derived_bracket_identity_operator_value(kx2_q):
    # p = id on k[x]/(x^2): the half residual at ((0,e0),(0,e0)) is (-e0, 0)
    from rbx.operators import OperatorInstance

    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q), identity(2, QQ))
    half = derived_bracket(lift_operator(inst), lift_operator(inst),
                           semidirect_mult_map(inst)).scale(Fraction(1, 2))
    got = half.tensor[2, 2]
    assert got[0] == Fraction(-1) and is_zero(got[1:])


def test_derived_bracket_rejects_non_square_zero():
    rng = random.Random(29)
    S = rand_map(2, 2, QQ, rng)
    assert not g_bracket(S, S).is_zero_map()  # seed chosen non-associative
    f = rand_map(2, 1, QQ, rng)
    with pytest.raises(InputError):
        derived_bracket(f, f, S)


# ---------------------------------------------------------------------------
# graded identities

def test_jacobi_arity_one_triples():
    rng = random.Random(30)
    f, g, h = (rand_map(3, 1, QQ, rng) for _ in range(3))
    assert jacobi_residual(f, g, h).is_zero_map()


def test_jacobi_mu_pi_pi(mult_by_x_q):
    mu_hat = semidirect_mult_map(mult_by_x_q)
    p_hat = lift_operator(mult_by_x_q)
    assert jacobi_residual(mu_hat, p_hat, p_hat).is_zero_map()


def test_graded_identities_random_triples():
    rng = random.Random(31)
    for trial in range(30):
        field = QQ if trial % 2 else F5
        dim = rng.choice([2, 3])
        f = rand_map(dim, rng.choice([1, 2]), field, rng)
        g = rand_map(dim, rng.choice([1, 2]), field, rng)
        h = rand_map(dim, rng.choice([1, 2]), field, rng)
        # antisymmetry
        sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
        anti = g_bracket(f, g) + g_bracket(g, f).scale(field.from_int(sign))
        assert anti.is_zero_map()
        # Jacobi
        assert jacobi_residual(f, g, h).is_zero_map()
        # Leibniz: [f,[g,h]] = [[f,g],h] + (-1)^{(m-1)(n-1)} [g,[f,h]]
        sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
        lhs = g_bracket(f, g_bracket(g, h))
        rhs = g_bracket(g_bracket(f, g), h) + \
            g_bracket(g, g_bracket(f, h)).scale(field.from_int(sign))
        assert tensors_equal(lhs.tensor, rhs.tensor)


def test_square_zero_iff_associative():
    rng = random.Random(32)
    seen_assoc = seen_nonassoc = 0
    for name, A in catalog_algebras():
        S = from_algebra(A)
        assert g_bracket(S, S).is_zero_map()
        seen_assoc += 1
    for _ in range(20):
        S = rand_map(2, 2, QQ, rng)
        bracket_zero = g_bracket(S, S).is_zero_map()
        assoc = bool(assoc_check(Encoded.of(QQ, S.tensor)))
        assert bracket_zero == assoc
        seen_nonassoc += not assoc
    assert seen_nonassoc


@st.composite
def small_multimaps(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    arities = draw(st.tuples(*[st.integers(min_value=1, max_value=2)] * 2))
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    maps = []
    for arity in arities:
        shape = (dim,) * arity + (dim,)
        flat = draw(st.lists(entries, min_size=dim ** (arity + 1),
                             max_size=dim ** (arity + 1)))
        maps.append(MultiMap(QQ, np.array(flat, dtype=object).reshape(shape)))
    return maps


@settings(max_examples=40, deadline=None)
@given(small_multimaps())
def test_antisymmetry_property(maps):
    f, g = maps
    sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
    anti = g_bracket(f, g) + g_bracket(g, f).scale(Fraction(sign))
    assert anti.is_zero_map()


def test_square_zero_derivation_of_grb(mult_by_x_q):
    # for a generalized Rota-Baxter operator, g -> [p^, g]_mu^ squares to
    # zero on arity-1 and arity-2 test elements
    rng = random.Random(33)
    p_hat = lift_operator(mult_by_x_q)
    mu_hat = semidirect_mult_map(mult_by_x_q)

    def d(g):
        return derived_bracket(p_hat, g, mu_hat)

    for arity in (1, 2):
        for _ in range(5):
            g = rand_map(4, arity, QQ, rng)
            assert d(d(g)).is_zero_map()


def test_scale_multiplies_by_one_scalar():
    """`scale` multiplies the integers and the scale, over Q and F_p, on
    pure and on int64 integers, and on Python ints where int64 cannot
    hold the product; a tensor in place of the scalar is refused, not
    read as its first entry."""
    for field, scalar in ((QQ, Fraction(-3, 4)), (F5, F5.from_int(3))):
        mu = from_algebra(kx2(field))
        want = (mu.tensor * scalar).tolist()
        assert mu.scale(scalar).tensor.tolist() == want
        on_numpy = MultiMap(field, Encoded(field, linalg.to_numpy(
            mu._tensor.ints), mu._tensor.scale))
        assert on_numpy.scale(scalar).tensor.tolist() == want
        with pytest.raises(InputError, match="one scalar"):
            mu.scale([scalar, scalar])
    # past int64 on numpy: the product goes to Python ints
    big = MultiMap(QQ, Encoded(QQ, linalg.to_numpy(IntTensor((1, 1), [2 ** 62]))))
    assert big.scale(Fraction(3)).tensor.tolist() == [[3 * 2 ** 62]]
