import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalog_trb_instances, upper_triangular
from oracle import (add, bilinear, identity, induced_product, tensors_equal,
                    vec_mat, zeros)
from rbx.algebra import bimodule_check, canonical_bimodule
from rbx.cochains import is_cocycle
from rbx.errors import CapacityError, CharacteristicError, InputError
from rbx.fields import F3, F5, QQ
from rbx.catalog import TABLE
from rbx.instances import (BUILDERS, kx2, tensor_square, truncated_polynomial,
                           unit_section, unit_section_tensor_example)
from rbx.operators import is_grb, is_reynolds, is_trb
from rbx.structures import check_ns, ns_from_trb
from weyl import WeylPoly, truncated_weyl


# ---------------------------------------------------------------------------
# truncated polynomials

def test_truncated_polynomial_operator_values():
    tp = truncated_polynomial(3)
    pi = tp.op
    # p(1) = x, p(x) = x^2/2, p(x^2) = x^3/3
    assert pi[0, 0] == Fraction(1)
    assert pi[1, 1] == Fraction(1, 2)
    assert pi[2, 2] == Fraction(1, 3)
    assert is_grb(tp.instance())


def test_truncated_polynomial_hand_pair():
    # pair (1, 1): p(1)p(1) = x^2 and p(p(1).1 + 1.p(1)) = p(2x) = x^2
    tp = truncated_polynomial(3)
    A, M, p = tp.algebra, tp.module, tp.op
    lhs = bilinear(A.c, p[0], p[0], QQ)
    rhs = vec_mat(induced_product(p, M.left, M.right, 0, 0, QQ), p, QQ)
    assert tensors_equal(lhs, rhs)
    assert lhs[1] == Fraction(1)  # the x^2 coordinate


def test_truncated_polynomial_leibniz_rule():
    tp = truncated_polynomial(5)
    A, M, d = tp.algebra, tp.module, tp.omega
    for i in range(A.dim):              # a, b = e_i, e_j
        for j in range(A.dim):
            lhs = vec_mat(A.c[i, j], d, QQ)
            rhs = add(vec_mat(d[i], M.right[:, j], QQ),
                      vec_mat(d[j], M.left[i], QQ))
            assert tensors_equal(lhs, rhs)


def test_truncated_polynomial_bimodule_and_inverses():
    tp = truncated_polynomial(4)
    assert bimodule_check(tp.algebra, tp.module)
    assert tensors_equal(np.dot(tp.op, tp.omega), identity(4, QQ))
    assert tensors_equal(np.dot(tp.omega, tp.op), identity(4, QQ))


def test_truncated_polynomial_characteristic_guard():
    with pytest.raises(CharacteristicError):
        truncated_polynomial(3, F3)
    with pytest.raises(CharacteristicError):
        truncated_polynomial(5, F5)
    assert is_grb(truncated_polynomial(4, F5).instance())  # denominators 2,3,4


def test_truncated_polynomial_degree_floor():
    with pytest.raises(InputError):
        truncated_polynomial(2)


# ---------------------------------------------------------------------------
# truncated Weyl

def test_weyl_rb_identity_on_small_monomials():
    # int(1) int(1) = y^2 = int( int(1) 1 + 1 int(1) ) dy
    one = WeylPoly.one()
    iy = one.integrate_y()
    assert iy == WeylPoly.monomial(0, 1)
    lhs = iy * iy
    rhs = (iy * one + one * iy).integrate_y()
    assert lhs == rhs == WeylPoly.monomial(0, 2)


def test_weyl_commutator_identity():
    # [x, int(a) dy] = a for a = xy and for every window monomial
    w = truncated_weyl(8)
    a = WeylPoly.monomial(1, 1)
    assert w.commutator_recovers(a)
    for (i, j) in w.basis:
        if i + j + 1 <= w.degree:
            assert w.commutator_recovers(WeylPoly.monomial(i, j))


def test_weyl_rb_identity_window():
    w = truncated_weyl(8)
    for (i, j), (k, l) in w.safe_window():
        assert w.rb_identity_holds(WeylPoly.monomial(i, j),
                                   WeylPoly.monomial(k, l))


def test_weyl_dual_derivation_window():
    w = truncated_weyl(8)
    for i, j, k, l in itertools.product(range(3), repeat=4):
        assert w.dual_grb_identity_holds(WeylPoly.monomial(i, j),
                                         WeylPoly.monomial(k, l))


def test_weyl_nijenhuis_window():
    w = truncated_weyl(8)
    for i, j, k, l in itertools.product(range(3), repeat=4):
        assert w.nijenhuis_identity_holds(WeylPoly.monomial(i, j),
                                          WeylPoly.monomial(k, l))


def test_weyl_ad_x_lowers_and_integral_raises():
    w = truncated_weyl(4)
    m = w.monomial(2, 2)
    assert m.ad_x() == WeylPoly.monomial(2, 1).scale(2)
    with pytest.raises(CapacityError):
        w.monomial(3, 2)
    with pytest.raises(CapacityError):
        w.instance_integral(2, 2)  # x^2 y^3 overflows degree 4
    assert w.instance_integral(1, 1) == WeylPoly.monomial(1, 2).scale(Fraction(1, 2))


def test_weyl_truncation_stability():
    # enlarging the degree never flips a verdict on a previously safe pair
    small, large = truncated_weyl(6), truncated_weyl(8)
    for (a, b) in small.safe_window():
        pa, pb = WeylPoly.monomial(*a), WeylPoly.monomial(*b)
        assert small.rb_identity_holds(pa, pb) == large.rb_identity_holds(pa, pb)


def test_weyl_degree_floor():
    with pytest.raises(InputError):
        truncated_weyl(3)


def _as_differential_operator(poly, f):
    """Independent faithful representation of W<x,y> on k[t]: x acts as
    d/dt and y as multiplication by t (so [x, y] = 1).  `f` is a
    polynomial {degree: coefficient}; x^i y^j sends t^k to
    (k+j)(k+j-1)...(k+j-i+1) t^{k+j-i}."""
    out = {}
    for (i, j), c in poly.terms.items():
        for k, fc in f.items():
            deg = k + j
            if deg - i < 0:
                continue
            falling = 1
            for s in range(i):
                falling *= deg - s
            if falling:
                key = deg - i
                out[key] = out.get(key, Fraction(0)) + fc * c * falling
    return {k: v for k, v in out.items() if v}


def test_weyl_product_matches_operator_composition():
    # the normal-ordering product must agree with composition of the
    # corresponding differential operators on every test polynomial
    import random

    rng = random.Random(71)
    monomials = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(60):
        p = WeylPoly.monomial(*rng.choice(monomials),
                              coeff=Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        q = WeylPoly.monomial(*rng.choice(monomials),
                              coeff=Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        for k in range(6):
            f = {k: Fraction(1)}
            composed = _as_differential_operator(p, _as_differential_operator(q, f))
            direct = _as_differential_operator(p * q, f)
            assert composed == direct, (p.terms, q.terms, k)


def test_weyl_product_is_associative():
    import random

    rng = random.Random(72)
    for _ in range(40):
        p, q, r = (WeylPoly.monomial(rng.randint(0, 3), rng.randint(0, 3),
                                     coeff=rng.randint(1, 3))
                   for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_weyl_engine_cross_checks_structure_constants():
    # the y-free fragment of the rewriter is plain polynomial arithmetic;
    # compare against the truncated-polynomial structure constants
    tp = truncated_polynomial(5)
    N = 5
    for i in range(N):      # algebra basis x^{i+1}
        for j in range(N):
            exact = WeylPoly.monomial(i + 1, 0) * WeylPoly.monomial(j + 1, 0)
            truncated = {m: c for m, c in exact.terms.items() if m[0] <= N}
            tensor_row = tp.algebra.c[i, j]
            for k in range(N):
                coeff = truncated.get((k + 1, 0), Fraction(0))
                assert tensor_row[k] == coeff


# ---------------------------------------------------------------------------
# tensor square and unit sections

def test_tensor_square_hand_pair():
    # (1(x)1, 1(x)1): lhs = 1, rhs = mu(1(x)1 + 1(x)1) + mu(-1(x)1) = 1
    ts = tensor_square(kx2(QQ))
    M, p, A = ts.module, ts.op, ts.algebra
    lhs = bilinear(A.c, p[0], p[0], QQ)
    rhs = vec_mat(add(induced_product(p, M.left, M.right, 0, 0, QQ),
                      bilinear(ts.cocycle.tensor, p[0], p[0], QQ)), p, QQ)
    assert tensors_equal(lhs, rhs)
    assert lhs[0] == Fraction(1)


def test_tensor_square_cocycle_and_ns():
    ts = tensor_square(kx2(QQ))
    assert is_cocycle(ts.cocycle)
    assert check_ns(ns_from_trb(ts))


def test_tensor_square_over_prime_field():
    assert is_trb(tensor_square(kx2(F5)))


def test_tensor_square_actions_on_a_noncommutative_algebra():
    # e_u (x) e_v at u * d + v: a.(u (x) v) = au (x) v, (u (x) v).a = u (x) va
    A = upper_triangular(QQ)
    ts = tensor_square(A)
    assert is_trb(ts)
    d, c, M = A.dim, A.c, ts.module
    for a, u, v, s, t in itertools.product(range(d), repeat=5):
        assert M.left[a, u * d + v, s * d + t] == c[a, u, s] * (v == t)
        assert M.right[u * d + v, a, s * d + t] == (u == s) * c[v, a, t]


def test_unit_section_tensor_example():
    assert is_trb(unit_section_tensor_example(QQ))


def test_unit_section_identity_recovers_reynolds():
    # M = A, f = id, e = 1: phi(a,b) = -ab, so f is the identity Reynolds
    A = kx2(QQ)
    M = canonical_bimodule(A)
    inst = unit_section(A, M, identity(2, QQ), A.unit())
    assert tensors_equal(inst.cocycle.tensor, -A.c)
    assert is_trb(inst)
    assert is_reynolds(A, identity(2, QQ))


def test_unit_section_rejects_broken_hypotheses():
    A = kx2(QQ)
    M = canonical_bimodule(A)
    e = A.unit()
    not_e = zeros(2, QQ)
    not_e[1] = QQ.one
    with pytest.raises(InputError):
        unit_section(A, M, identity(2, QQ), not_e)  # f(e) != 1
    swap = zeros((2, 2), QQ)
    swap[0, 1] = QQ.one
    swap[1, 0] = QQ.one
    with pytest.raises(InputError):
        unit_section(A, M, swap, e)  # not A-linear
    degenerate = zeros((2, 2), QQ)
    degenerate[0, 0] = QQ.one
    with pytest.raises(InputError):
        unit_section(A, M, degenerate, A.unit())  # not surjective


def test_catalog_every_instance_passes_its_checker():
    for name, inst in catalog_trb_instances().items():
        assert is_trb(inst), name
    from rbx.instances import mult_by_x_instance

    assert is_grb(mult_by_x_instance(QQ))
    assert is_grb(truncated_polynomial(4).instance())


def test_catalog_registry_builders():
    assert set(BUILDERS) == {name for name, (_, emittable, _) in TABLE.items()
                             if emittable}
    for name, build in BUILDERS.items():
        built = build(6) if TABLE[name][2] else build()
        assert built is not None, name
