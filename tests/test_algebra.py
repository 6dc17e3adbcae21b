from fractions import Fraction

import pytest

from conftest import upper_triangular
from oracle import (basis, bilinear, identity, neg, oracle_graph_check,
                    tensors_equal, vec_mat, zeros)
from propositions import dual_module, intertwiner_check
from rbx.algebra import (Algebra, Bimodule, assoc_check, bimodule_check,
                         canonical_bimodule, extension)
from rbx.cochains import Cochain, is_cocycle
from rbx.errors import InputError
from rbx.fields import F2, QQ
from rbx.gerstenhaber import MultiMap
from rbx.instances import kx2, mult_by_x_instance, null_algebra
from rbx.linalg import Encoded, is_zero, rank


def test_assoc_check_kx2_passes(kx2_q):
    assert assoc_check(Encoded.of(QQ, kx2_q.c))


def test_assoc_check_null_product_passes():
    assert assoc_check(Encoded.of(QQ, zeros((3, 3, 3), QQ)))


def test_assoc_check_failure_witness():
    # e0e0 = e1, e1ej = 0, e0e1 = e0; by hand (e0e0)e0 = e1e0 = 0 while
    # e0(e0e0) = e0e1 = e0, so the lexicographically first failure is
    # already at (0,0,0,0) with sides 0 and 1.
    c = zeros((2, 2, 2), QQ)
    c[0, 0, 1] = QQ.one
    c[0, 1, 0] = QQ.one
    report = assoc_check(Encoded.of(QQ, c))
    assert not report
    assert report.witness == (0, 0, 0, 0)
    assert report.lhs == 0 and report.rhs == 1


def test_assoc_check_shape_error():
    with pytest.raises(InputError):
        assoc_check(Encoded.of(QQ, zeros((2, 2, 3), QQ)))


def test_algebra_constructor_rejects_nonassociative():
    c = zeros((2, 2, 2), QQ)
    c[0, 0, 1] = QQ.one
    c[0, 1, 0] = QQ.one
    with pytest.raises(InputError):
        Algebra(QQ, c)


def test_bimodule_check_canonical(kx2_q):
    assert bimodule_check(kx2_q, canonical_bimodule(kx2_q))


def test_bimodule_check_dual(kx2_q):
    assert bimodule_check(kx2_q, dual_module(kx2_q))


def test_bimodule_check_zero_left_action_still_satisfies_axioms(kx2_q):
    # a zero left action satisfies all three axioms identically: every
    # side involving it is zero, so this degenerate module passes
    degenerate = Bimodule(kx2_q, zeros((2, 2, 2), QQ), kx2_q.c, check=False)
    assert bimodule_check(kx2_q, degenerate)


def test_bimodule_check_scaled_left_action_fails(kx2_q):
    # left = 2c breaks (ab).m = a.(b.m): for a=b=m=1 the sides are 2 and 4
    broken = Bimodule(kx2_q, kx2_q.c * Fraction(2), kx2_q.c, check=False)
    report = bimodule_check(kx2_q, broken)
    assert not report
    assert report.witness == (0, 0, 0, 0, 0)
    assert "(ab).m" in report.detail


def test_semidirect_product_values(kx2_q):
    S = extension(kx2_q, canonical_bimodule(kx2_q)).objects
    # (e0, 0) * (0, e0) = (0, e0): basis 0 times basis 2 gives basis 2
    prod = S[0, 2]
    expected = zeros(4, QQ)
    expected[2] = QQ.one
    assert tensors_equal(prod, expected)
    # (0,m)*(0,n) = 0 for all m, n
    for i in (2, 3):
        for j in (2, 3):
            assert is_zero(S[i, j])


def test_semidirect_associativity_all_catalog_pairs():
    for A in (kx2(QQ), kx2(F2), null_algebra(QQ, 2)):
        for M in (canonical_bimodule(A), dual_module(A)):
            assert assoc_check(extension(A, M))


def test_twisted_extension_zero_cocycle_matches_semidirect(kx2_q):
    M = canonical_bimodule(kx2_q)
    plain = extension(kx2_q, M)
    twisted = extension(kx2_q, M, zeros((2, 2, 2), QQ))
    assert tensors_equal(plain.objects, twisted.objects)


def test_twisted_extension_unit_twist_is_associative(kx2_q):
    # phi(a, b) = -a.e.b with e the unit is a 2-cocycle
    M = canonical_bimodule(kx2_q)
    phi = zeros((2, 2, 2), QQ)
    e = kx2_q.unit()
    for i in range(2):
        ae = vec_mat(e, M.left[i], QQ)                  # e_i . e
        for j in range(2):
            phi[i, j] = neg(vec_mat(ae, M.right[:, j], QQ))  # -(e_i . e) . e_j
    assert is_cocycle(Cochain(kx2_q, M, phi))
    assert assoc_check(extension(kx2_q, M, phi))


def test_twisted_extension_non_cocycle_fails_assoc(kx2_q):
    import random

    from oracle import random_tensor

    M = canonical_bimodule(kx2_q)
    rng = random.Random(7)
    found = False
    for _ in range(50):
        phi = random_tensor((2, 2, 2), QQ, rng)
        cochain = Cochain(kx2_q, M, phi)
        if is_cocycle(cochain):
            continue
        found = True
        assert not assoc_check(extension(kx2_q, M, phi))
        with pytest.raises(InputError):
            Algebra(QQ, extension(kx2_q, M, phi))
        break
    assert found


def graph_escapes(field, ext, op):
    """The rows (p(m_i), m_i) spanning the graph of p: M -> A, and the
    basis pairs (i, j) whose product in the extension tensor `ext`
    raises their rank, with those products."""
    d = op.shape[0]
    rows = [list(op[i]) + basis(d, i, field) for i in range(d)]
    escapes = []
    for i in range(d):
        for j in range(d):
            prod = bilinear(ext, rows[i], rows[j], field)
            if rank(Encoded.of(field, rows + [prod])) > d:
                escapes.append(((i, j), prod))
    return rows, escapes


def test_the_graph_of_mult_by_x_is_closed_in_the_semidirect_product(kx2_q):
    M = canonical_bimodule(kx2_q)
    op = mult_by_x_instance(QQ).op
    _, escapes = graph_escapes(QQ, extension(kx2_q, M).objects, op)
    assert escapes == []
    assert oracle_graph_check(QQ, kx2_q.c, M.left, M.right, op) is None


def test_the_graph_of_the_identity_escapes_the_semidirect_product(kx2_q):
    M = canonical_bimodule(kx2_q)
    op = identity(2, QQ)
    _, escapes = graph_escapes(QQ, extension(kx2_q, M).objects, op)
    # the first pair ((e0,e0),(e0,e0)) has product (e0, 2 e0)
    witness, prod = escapes[0]
    assert witness == (0, 0)
    assert prod == [Fraction(1), Fraction(0), Fraction(2), Fraction(0)]
    assert oracle_graph_check(QQ, kx2_q.c, M.left, M.right, op)[:2] == \
        (witness, prod)


def test_intertwiner_identity(kx2_q):
    mu = MultiMap(QQ, kx2_q._c)
    assert intertwiner_check(identity(2, QQ), mu, mu)


def test_intertwiner_detects_mismatch(kx2_q):
    mu = MultiMap(QQ, kx2_q._c)
    null = MultiMap(QQ, null_algebra(QQ, 2)._c)
    report = intertwiner_check(identity(2, QQ), mu, null)
    assert not report


def test_intertwiner_rejects_singular(kx2_q):
    mu = MultiMap(QQ, kx2_q._c)
    with pytest.raises(InputError):
        intertwiner_check(zeros((2, 2), QQ), mu, mu)


def test_unit_detection():
    assert kx2(QQ).unit() is not None
    assert null_algebra(QQ, 2).unit() is None


def test_dual_module_actions_match_definition(kx2_q):
    # (a.f)(b) = f(ba) and (f.a)(b) = f(ab), checked pointwise; on the
    # non-commutative upper triangular algebra ba and ab differ
    for A in (kx2_q, upper_triangular(QQ)):
        D, c, d = dual_module(A), A.c, A.dim
        for s in range(d):                  # a = e_s
            for i in range(d):              # f = e_i*
                af, fa = D.left[s, i], D.right[i, s]
                for j in range(d):          # b = e_j
                    ba, ab = c[j, s], c[s, j]
                    assert af[j] == ba[i]
                    assert fa[j] == ab[i]
