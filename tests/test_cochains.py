import random

import pytest

from conftest import catalog_algebras
from oracle import (add, basis, bilinear, identity, multilinear, neg,
                    random_tensor, tensors_equal, vec_mat, zeros)
from propositions import dual_module
from rbx.algebra import assoc_check, canonical_bimodule, extension
from rbx.cochains import Cochain, coboundary, is_cocycle
from rbx.errors import CapacityError
from rbx.fields import QQ
from rbx.instances import kx2
from rbx.linalg import is_zero


def test_coboundary_of_zero(kx2_q):
    M = canonical_bimodule(kx2_q)
    for arity in (1, 2, 3):
        zero = Cochain(kx2_q, M, zeros((2,) * arity + (2,), QQ))
        assert coboundary(zero).is_zero_map()


def test_coboundary_of_identity_is_multiplication(kx2_q):
    # d(id)(a,b) = a.id(b) - id(ab) + id(a).b = ab
    M = canonical_bimodule(kx2_q)
    idc = Cochain(kx2_q, M, identity(2, QQ))
    assert tensors_equal(coboundary(idc).tensor, kx2_q.c)


def test_multiplication_is_a_cocycle(kx2_q):
    # d(mu)(a,b,c) = a(bc) - (ab)c + a(bc) - (ab)c = 0 by associativity
    assert is_cocycle(Cochain(kx2_q, canonical_bimodule(kx2_q), kx2_q.c))


def test_arity_one_matches_displayed_formula(kx2_q):
    # d(w)(a,b) = a.w(b) - w(ab) + w(a).b, coefficient by coefficient
    rng = random.Random(11)
    M = dual_module(kx2_q)
    w = Cochain(kx2_q, M, random_tensor((2, 2), QQ, rng))
    d = coboundary(w)
    c, W = kx2_q.c, w.tensor
    for i in range(2):                  # a = e_i
        for j in range(2):              # b = e_j
            direct = add(vec_mat(W[j], M.left[i], QQ),
                         neg(vec_mat(c[i, j], W, QQ)),
                         vec_mat(W[i], M.right[:, j], QQ))
            assert tensors_equal(d.tensor[i, j], direct)


def test_arity_two_matches_displayed_formula(kx2_q):
    # d(phi)(a,b,c) = a.phi(b,c) - phi(ab,c) + phi(a,bc) - phi(a,b).c
    rng = random.Random(12)
    M = canonical_bimodule(kx2_q)
    phi = Cochain(kx2_q, M, random_tensor((2, 2, 2), QQ, rng))
    d = coboundary(phi)
    mu, P = kx2_q.c, phi.tensor
    for i in range(2):                  # a, b, c = e_i, e_j, e_k
        for j in range(2):
            for k in range(2):
                direct = add(vec_mat(P[j, k], M.left[i], QQ),
                             neg(vec_mat(mu[i, j], P[:, k], QQ)),
                             vec_mat(mu[j, k], P[i], QQ),
                             neg(vec_mat(P[i, j], M.right[:, k], QQ)))
                assert tensors_equal(d.tensor[i, j, k], direct)


def test_coboundary_squared_is_zero_random():
    for name, A in catalog_algebras():
        rng = random.Random(hash(name) & 0xFFFF)
        M = canonical_bimodule(A)
        for arity in (1, 2):
            for _ in range(10):
                phi = Cochain(A, M, random_tensor(
                    (A.dim,) * arity + (M.dim,), A.field, rng))
                assert coboundary(coboundary(phi)).is_zero_map()


def test_coboundary_squared_arity_three_pointwise():
    # d(d(phi)) for arity-3 phi is an arity-5 map, beyond the tensor cap,
    # so evaluate the second coboundary pointwise on all basis 5-tuples
    import itertools

    for name, A in catalog_algebras()[:3]:
        rng = random.Random(hash(name) & 0xFFF)
        M = canonical_bimodule(A)
        for _ in range(5):
            phi = Cochain(A, M, random_tensor(
                (A.dim,) * 3 + (M.dim,), A.field, rng))
            psi = coboundary(phi).tensor  # arity 4, exactly at the cap
            f = A.field
            for idx in itertools.product(range(A.dim), repeat=5):
                vecs = [basis(A.dim, i, f) for i in idx]
                total = bilinear(M.left, vecs[0],
                                 multilinear(psi, vecs[1:], f), f)
                sign = -1
                for i in range(1, 5):
                    args = (vecs[:i - 1]
                            + [bilinear(A.c, vecs[i - 1], vecs[i], f)]
                            + vecs[i + 1:])
                    term = multilinear(psi, args, f)
                    total = add(total, term if sign > 0 else neg(term))
                    sign = -sign
                last = bilinear(M.right, multilinear(psi, vecs[:4], f),
                                vecs[4], f)
                total = add(total, last if sign > 0 else neg(last))
                assert is_zero(total), name


def test_arity_cap():
    A = kx2(QQ)
    M = canonical_bimodule(A)
    top = Cochain(A, M, zeros((2,) * 4 + (2,), QQ))
    with pytest.raises(CapacityError):
        coboundary(top)


def test_is_cocycle_witness(kx2_q):
    rng = random.Random(13)
    M = canonical_bimodule(kx2_q)
    found = False
    for _ in range(50):
        phi = Cochain(kx2_q, M, random_tensor((2, 2, 2), QQ, rng))
        report = is_cocycle(phi)
        if report:
            continue
        found = True
        i, j, k, l = report.witness
        # the witness indexes a nonzero coefficient of the coboundary
        d = coboundary(phi)
        assert bool(d.tensor[i, j, k, l])
        break
    assert found


def test_twisted_extension_assoc_iff_cocycle():
    # shared invariant with algebra-core: 100 random 2-cochains per
    # catalog (algebra, bimodule) pair, both directions
    from rbx.fields import F5

    pairs = [
        ("kx2/Q canonical", kx2(QQ), canonical_bimodule(kx2(QQ))),
        ("kx2/Q dual", kx2(QQ), dual_module(kx2(QQ))),
        ("kx2/F5 canonical", kx2(F5), canonical_bimodule(kx2(F5))),
    ]
    for name, A, M in pairs:
        rng = random.Random(hash(name) & 0xFFFF)
        cocycle_seen = noncocycle_seen = 0
        for trial in range(100):
            tensor = random_tensor((A.dim, A.dim, M.dim), A.field, rng)
            if trial % 2:
                # push into the cocycle subspace by taking a coboundary
                tensor = coboundary(Cochain(A, M, random_tensor(
                    (A.dim, M.dim), A.field, rng))).tensor
            phi = Cochain(A, M, tensor)
            ext_assoc = bool(assoc_check(extension(A, M, tensor)))
            cocycle = bool(is_cocycle(phi))
            assert ext_assoc == cocycle, name
            cocycle_seen += cocycle
            noncocycle_seen += not cocycle
        assert cocycle_seen and noncocycle_seen, name
