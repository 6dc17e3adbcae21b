import random

import numpy as np
import pytest

from conftest import catalog_trb_instances
from oracle import (identity, induced_product, neg, random_tensor,
                    tensors_equal, vec_mat, zeros)
from propositions import identity_operator
from rbx.algebra import assoc_check, bimodule_check, canonical_bimodule
from rbx.cochains import is_cocycle
from rbx.errors import InputError
from rbx.fields import F2, QQ
from rbx.gerstenhaber import g_bracket
from rbx.instances import kx2, mult_by_x_instance, truncated_polynomial
from rbx.linalg import is_zero
from rbx.operators import (OperatorInstance, is_grb, is_nijenhuis,
                           is_trb, lift_operator, search_operators,
                           semidirect_mult_map)
from rbx.structures import (Dendriform, NSAlgebra, check_dendriform, check_ns,
                            dendriform_from_grb, derivation_dual,
                            grb_morphism_check, induced_actions,
                            ns_from_trb, total_product)


# ---------------------------------------------------------------------------
# checkers

def test_zero_dendriform_passes():
    z = zeros((2, 2, 2), QQ)
    assert check_dendriform(Dendriform(QQ, z, z))


def test_dendriform_from_grb_passes_checker(mult_by_x_q):
    assert check_dendriform(dendriform_from_grb(mult_by_x_q))


def test_dendriform_from_grb_values(mult_by_x_q):
    # e0 > e0 = p(e0).e0 = x, all other > products vanish; < is symmetric
    D = dendriform_from_grb(mult_by_x_q)
    assert D.succ[0, 0, 1] == 1 and D.succ[0, 0, 0] == 0
    assert is_zero(D.succ[0, 1]) and is_zero(D.succ[1, 0]) and is_zero(D.succ[1, 1])
    assert D.prec[0, 0, 1] == 1
    assert is_zero(D.prec[1, 0]) and is_zero(D.prec[0, 1]) and is_zero(D.prec[1, 1])


def test_random_tensor_violations_detected_with_witness():
    rng = random.Random(51)
    found_d2 = False
    for _ in range(40):
        succ = random_tensor((2, 2, 2), QQ, rng)
        prec = random_tensor((2, 2, 2), QQ, rng)
        report = check_dendriform(Dendriform(QQ, succ, prec))
        if report:
            continue
        axioms = {f[0] for f in report.failures}
        if "d2" not in axioms:
            continue
        found_d2 = True
        # validate the d2 witness by hand expansion
        witness = next(f for f in report.failures if f[0] == "d2")
        i, j, k = witness[1]
        lhs = [sum((succ[i, j, m] * prec[m, k, l] for m in range(2)),
                   start=QQ.zero) for l in range(2)]
        rhs = [sum((prec[j, k, m] * succ[i, m, l] for m in range(2)),
                   start=QQ.zero) for l in range(2)]
        assert lhs != rhs
        break
    assert found_d2


def test_ns_vee_zero_reduces_to_dendriform():
    rng = random.Random(52)
    for _ in range(10):
        succ = random_tensor((2, 2, 2), QQ, rng)
        prec = random_tensor((2, 2, 2), QQ, rng)
        zero = zeros((2, 2, 2), QQ)
        assert bool(check_dendriform(Dendriform(QQ, succ, prec))) == \
            bool(check_ns(NSAlgebra(QQ, succ, prec, zero)))


def test_dendriform_vee_reads_none(mult_by_x_q):
    D = dendriform_from_grb(mult_by_x_q)
    assert D.vee is None
    assert D.succ.shape == D.prec.shape == (2, 2, 2)


def test_ns_from_trb_catalog_instances():
    for name, inst in catalog_trb_instances().items():
        ns = ns_from_trb(inst)
        assert check_ns(ns), name
        assert assoc_check(ns._total()), name


def test_ns_from_nijenhuis_operator(kx2_q):
    # x > y = N(x) y, x < y = x N(y), x v y = -N(xy) satisfies the axioms
    rng = random.Random(53)
    found = 0
    for _ in range(30):
        mat = random_tensor((2, 2), QQ, rng)
        if not is_nijenhuis(kx2_q, mat):
            continue
        found += 1
        d, c = 2, kx2_q.c
        succ = zeros((d, d, d), QQ)
        prec = zeros((d, d, d), QQ)
        vee = zeros((d, d, d), QQ)
        for i in range(d):              # N(e_i) = mat[i]
            for j in range(d):
                succ[i, j] = vec_mat(mat[i], c[:, j], QQ)
                prec[i, j] = vec_mat(mat[j], c[i], QQ)
                vee[i, j] = neg(vec_mat(c[i, j], mat, QQ))
        assert check_ns(NSAlgebra(QQ, succ, prec, vee))
    assert found


def test_reynolds_identity_vee_is_minus_product():
    from rbx.instances import reynolds_identity_instance

    ns = ns_from_trb(reynolds_identity_instance(QQ))
    assert tensors_equal(ns.vee, -kx2(QQ).c)


# ---------------------------------------------------------------------------
# total product and the identity operator

def test_total_product_zero_dendriform_is_null_algebra():
    z = zeros((2, 2, 2), QQ)
    alg = total_product(Dendriform(QQ, z, z))
    assert is_zero(alg.c)


def test_total_product_matches_induced_product(mult_by_x_q):
    # m n = p(m).n + m.p(n)
    D = dendriform_from_grb(mult_by_x_q)
    alg = total_product(D)
    M, p = mult_by_x_q.module, mult_by_x_q.op
    for i in range(2):
        for j in range(2):
            expected = induced_product(p, M.left, M.right, i, j, QQ)
            assert tensors_equal(alg.c[i, j], expected)


def test_total_product_rejects_broken_structure():
    rng = random.Random(54)
    succ = random_tensor((2, 2, 2), QQ, rng)
    prec = random_tensor((2, 2, 2), QQ, rng)
    assert not check_dendriform(Dendriform(QQ, succ, prec))
    with pytest.raises(InputError):
        total_product(Dendriform(QQ, succ, prec))


def test_identity_operator_roundtrip_dendriform(mult_by_x_q):
    D = dendriform_from_grb(mult_by_x_q)
    back = identity_operator(D)
    assert is_grb(back)
    D2 = dendriform_from_grb(back)
    assert tensors_equal(D.succ, D2.succ)
    assert tensors_equal(D.prec, D2.prec)


def test_identity_operator_roundtrip_ns():
    for name, inst in catalog_trb_instances().items():
        ns = ns_from_trb(inst)
        back = identity_operator(ns)
        assert is_trb(back), name
        ns2 = ns_from_trb(back)
        assert tensors_equal(ns.succ, ns2.succ), name
        assert tensors_equal(ns.prec, ns2.prec), name
        assert tensors_equal(ns.vee, ns2.vee), name


def test_identity_operator_zero_dendriform():
    z = zeros((2, 2, 2), QQ)
    back = identity_operator(Dendriform(QQ, z, z))
    assert is_grb(back)
    assert is_zero(back.algebra.c)


def test_vee_cochain_of_catalog_ns_is_cocycle():
    # the vee product of an NS algebra is a Hochschild cocycle over the
    # total algebra; realized through the identity-operator construction
    for name, inst in catalog_trb_instances().items():
        ns = ns_from_trb(inst)
        back = identity_operator(ns)
        assert back.cocycle is not None and is_cocycle(back.cocycle), name


# ---------------------------------------------------------------------------
# induced actions and derivation duality

def test_induced_actions_zero_operator(kx2_q):
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q), zeros((2, 2), QQ))
    actions = induced_actions(inst)
    assert is_zero(actions.left) and is_zero(actions.right)


def test_induced_actions_mult_by_x_table(mult_by_x_q):
    # m ._p a = p(m)a - p(m.a) and a ._p m = ap(m) - p(a.m), by hand:
    # e0 ._p e0 = x.1 - p(1) = x - x = 0; e0 ._p e1 = x.x - p(x) = 0
    actions = induced_actions(mult_by_x_q)
    assert is_zero(actions.left[0, 0])
    assert is_zero(actions.left[0, 1])
    assert is_zero(actions.right[0, 0])
    assert bimodule_check(actions.base, actions)


def test_induced_actions_match_bracket_engine(mult_by_x_q):
    # [mu^, p^]((a,m),(b,n)) = (a._p n + m._p b, mn) on basis pairs
    inst = mult_by_x_instance(QQ)
    actions = induced_actions(inst)
    bracket = g_bracket(semidirect_mult_map(inst), lift_operator(inst))
    dA, dM = 2, 2
    m_ass = actions.base
    for i in range(dA + dM):
        for j in range(dA + dM):
            got = bracket.tensor[i, j]
            expected = zeros(dA + dM, QQ)
            if i < dA and j >= dA:        # (a, 0) * (0, n)
                expected[:dA] = actions.right[i, j - dA]
            elif i >= dA and j < dA:      # (0, m) * (b, 0)
                expected[:dA] = actions.left[i - dA, j]
            elif i >= dA and j >= dA:     # (0, m) * (0, n) -> (0, mn)
                expected[dA:] = m_ass.c[i - dA, j - dA]
            assert tensors_equal(got, expected)


def test_compatible_pair_of_associative_structures(mult_by_x_q):
    # mu^ + [mu^, p^] is itself square-zero for a Rota-Baxter operator
    mu_hat = semidirect_mult_map(mult_by_x_q)
    deformed = mu_hat + g_bracket(mu_hat, lift_operator(mult_by_x_q))
    assert g_bracket(deformed, deformed).is_zero_map()


def test_derivation_dual_truncated_polynomial():
    tp = truncated_polynomial(5)
    inst = tp
    dual = derivation_dual(inst, tp.omega, QQ.one)
    assert is_grb(dual)


def test_derivation_dual_rejects_non_derivation():
    tp = truncated_polynomial(4)
    bad = random_tensor((4, 4), QQ, random.Random(55))
    with pytest.raises(InputError):
        derivation_dual(tp, bad, QQ.one)


def test_derivation_dual_rejects_wrong_scalar():
    tp = truncated_polynomial(4)
    with pytest.raises(InputError):
        derivation_dual(tp, tp.omega, QQ.from_int(2))


def test_inverse_derivation_identities():
    # W o p = id on M and p o W = id on A for the truncated instance
    tp = truncated_polynomial(6)
    assert tensors_equal(np.dot(tp.op, tp.omega), identity(6, QQ))
    assert tensors_equal(np.dot(tp.omega, tp.op), identity(6, QQ))


# ---------------------------------------------------------------------------
# morphisms

def test_identity_morphism(mult_by_x_q):
    ident = identity(2, QQ)
    assert grb_morphism_check(ident, ident, mult_by_x_q, mult_by_x_q)


def test_zero_morphism(mult_by_x_q):
    zero = zeros((2, 2), QQ)
    assert grb_morphism_check(zero, zero, mult_by_x_q, mult_by_x_q)


def test_adjunction_image_is_morphism(mult_by_x_q):
    # a dendriform morphism psi: E -> G(inst) induces the operator-instance
    # morphism (psi, p o psi) out of the identity operator on E
    D = dendriform_from_grb(mult_by_x_q)
    free = identity_operator(D)
    psi1 = identity(2, QQ)                  # E -> M
    psi0 = np.dot(psi1, mult_by_x_q.op)     # E_ass -> A
    assert grb_morphism_check(psi0, psi1, free, mult_by_x_q)


def test_morphism_detects_broken_square(mult_by_x_q):
    ident = identity(2, QQ)
    swapped = [[QQ.zero, QQ.one], [QQ.one, QQ.zero]]
    report = grb_morphism_check(swapped, ident, mult_by_x_q, mult_by_x_q)
    assert not report


# ---------------------------------------------------------------------------
# exhaustive soundness over F2

def test_every_enumerated_grb_gives_valid_dendriform():
    A = kx2(F2)
    M = canonical_bimodule(A)
    for mat in search_operators(A, M, "grb"):
        inst = OperatorInstance(A, M, mat)
        D = dendriform_from_grb(inst)
        assert check_dendriform(D)
        assert assoc_check(D._total())


def test_every_enumerated_twisted_operator_gives_valid_ns():
    # complete enumeration with the Reynolds twist phi = -mu over F2
    from rbx.cochains import Cochain

    A = kx2(F2)
    M = canonical_bimodule(A)
    phi = Cochain(A, M, -A.c)
    solutions = search_operators(A, M, "trb", cocycle=phi)
    assert solutions
    for mat in solutions:
        inst = OperatorInstance(A, M, mat, phi)
        ns = ns_from_trb(inst)
        assert check_ns(ns)
        assert assoc_check(ns._total())
