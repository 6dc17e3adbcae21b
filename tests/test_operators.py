import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import enumeration_pairs, ground_field_algebra
from oracle import (add, aybe_oracle, bilinear, elements, identity,
                    induced_product, oracle_graph_check, random_tensor,
                    tensors_equal, vec_mat, zeros)
from propositions import dual_module, r_tilde
from rbx import linalg, operators
from rbx.algebra import (Algebra, bimodule_check, canonical_bimodule,
                         extension)
from rbx.cochains import Cochain
from rbx.errors import CapacityError, CharacteristicError, InputError
from rbx.fields import F2, F3, QQ, PrimeField
from rbx.gerstenhaber import MultiMap, circ_i, g_bracket
from rbx.instances import (kx2, mult_by_x_instance, null_algebra,
                           swap_instance, tensor_square, truncated_polynomial)
from rbx.linalg import Encoded, is_zero
from rbx.operators import (OperatorInstance, aybe_residual,
                           is_classical_rb, is_grb, is_nijenhuis, is_reynolds,
                           is_trb, lift_cocycle, lift_operator,
                           reynolds_as_twisted, search_operators,
                           structure_residual, twist_insertion)
from test_contract import spy_products


# ---------------------------------------------------------------------------
# lifts

def test_lift_of_zero_operator(kx2_q):
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q),
                            zeros((2, 2), QQ))
    assert lift_operator(inst).is_zero_map()


def test_lift_squares_to_zero_for_random_operators(kx2_q):
    rng = random.Random(41)
    M = canonical_bimodule(kx2_q)
    for _ in range(10):
        inst = OperatorInstance(kx2_q, M, random_tensor((2, 2), QQ, rng))
        p_hat = lift_operator(inst)
        assert circ_i(p_hat, p_hat, 1).is_zero_map()


def test_lift_values(mult_by_x_q):
    # p(a) = x a: p^(e0, e1) = (p(e1), 0) = (0,0); p^(e0, e0) = (e1, 0)
    mat = lift_operator(mult_by_x_q).tensor
    vec = np.dot(np.array([QQ.one, QQ.zero, QQ.zero, QQ.one], dtype=object), mat)
    assert is_zero(vec)
    vec = np.dot(np.array([QQ.one, QQ.zero, QQ.one, QQ.zero], dtype=object), mat)
    assert vec[1] == 1 and vec[0] == 0 and is_zero(vec[2:])


def test_lift_cocycle_block_structure():
    ts = tensor_square(kx2(QQ))
    phi_hat = lift_cocycle(ts)
    dA = ts.algebra.dim
    t = phi_hat.tensor
    # values land in the M-block
    assert is_zero(t[..., :dA])
    # vanishes when either input is in the M-block
    assert is_zero(t[dA:, :, :]) and is_zero(t[:, dA:, :])
    # on A-pairs it is the cochain itself
    assert tensors_equal(t[:dA, :dA, dA:], ts.cocycle.tensor)


def test_lift_cocycle_requires_twist(mult_by_x_q):
    with pytest.raises(InputError):
        lift_cocycle(mult_by_x_q)


# ---------------------------------------------------------------------------
# checkers

def test_zero_operator_is_grb(kx2_q):
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q),
                            zeros((2, 2), QQ))
    assert is_grb(inst)


def test_mult_by_x_is_grb_hand_expansion(mult_by_x_q):
    # direct substitution over all four basis pairs, by hand:
    # p(1)p(1) = x*x = 0 and p(p(1)1 + 1p(1)) = p(2x) = 2x^2 = 0, etc.
    assert is_grb(mult_by_x_q)
    A, M, p = (mult_by_x_q.algebra, mult_by_x_q.module, mult_by_x_q.op)
    for i in range(2):
        for j in range(2):
            lhs = bilinear(A.c, p[i], p[j], QQ)
            rhs = vec_mat(induced_product(p, M.left, M.right, i, j, QQ), p, QQ)
            assert tensors_equal(lhs, rhs)


def test_identity_not_grb_over_q(kx2_q):
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q), identity(2, QQ))
    report = is_grb(inst)
    assert not report
    assert report.witness == (0, 0)


def test_is_grb_rejects_twisted_instance():
    ts = tensor_square(kx2(QQ))
    with pytest.raises(InputError):
        is_grb(ts)
    with pytest.raises(InputError):
        is_trb(mult_by_x_instance(QQ))


def test_integration_operator_is_grb():
    tp = truncated_polynomial(4)
    assert is_grb(tp)


def test_trb_zero_twist_delegates_to_grb(kx2_q):
    # a zero cochain twist gives exactly the plain identity
    rng = random.Random(42)
    M = canonical_bimodule(kx2_q)
    for _ in range(10):
        mat = random_tensor((2, 2), QQ, rng)
        plain = OperatorInstance(kx2_q, M, mat)
        twisted = OperatorInstance(kx2_q, M, mat,
                                   Cochain(kx2_q, M, zeros((2, 2, 2), QQ)))
        assert bool(is_grb(plain)) == bool(is_trb(twisted))


def test_twist_is_checked_in_the_instance_module(kx2_q):
    """-mu is a cocycle in C^2(A, A), not in C^2(A, A*): a twist built on
    the canonical module is checked against the instance's own module."""
    A, dual = kx2_q, dual_module(kx2_q)
    minus_mu = Cochain(A, canonical_bimodule(A), -A.c)
    op = zeros((2, 2), QQ)
    assert is_trb(OperatorInstance(A, canonical_bimodule(A), op, minus_mu))
    with pytest.raises(InputError, match=re.escape(
            "twist is not a Hochschild cocycle; coboundary nonzero at "
            "(0, 0, 1, 1)")):
        OperatorInstance(A, dual, op, minus_mu)


def test_mu_as_twisted_operator():
    assert is_trb(tensor_square(kx2(QQ)))


def test_inverse_cochain_is_twisted(kx2_q):
    inst = swap_instance(QQ)
    assert is_trb(inst)
    # the twist is -dw for the swap cochain w; spot values derived by hand:
    # dw(1,1) = 1.w(1) - w(1) + w(1).1 = x, so phi(1,1) = -x
    assert inst.cocycle.tensor[0, 0, 1] == Fraction(-1)
    assert inst.cocycle.tensor[0, 0, 0] == 0


def test_reynolds_trivial_cases(kx2_q):
    assert is_reynolds(kx2_q, identity(2, QQ))
    assert is_reynolds(kx2_q, zeros((2, 2), QQ))


def test_reynolds_scalar_multiples_of_identity(kx2_q):
    # lambda id is Reynolds iff lambda^3 = lambda^2, i.e. lambda in {0, 1}
    for lam in [0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2)]:
        expected = lam in (0, 1)
        op = identity(2, QQ) * Fraction(lam)
        assert bool(is_reynolds(kx2_q, op)) == expected


def test_nijenhuis_trivial_cases(kx2_q):
    assert is_nijenhuis(kx2_q, identity(2, QQ))
    assert is_nijenhuis(kx2_q, zeros((2, 2), QQ))


def test_nijenhuis_from_derivation_duality():
    # p o W for the truncated-polynomial instance is the identity map,
    # which satisfies the Nijenhuis identity trivially; the Weyl instance
    # exercises the nontrivial case in test_instances
    tp = truncated_polynomial(4)
    n = np.dot(tp.omega, tp.op)
    assert is_nijenhuis(tp.algebra, n)


def test_reynolds_equals_twisted_with_minus_mu(kx2_q):
    rng = random.Random(43)
    for _ in range(20):
        mat = random_tensor((2, 2), QQ, rng)
        plain = is_reynolds(kx2_q, mat)
        twisted = is_trb(reynolds_as_twisted(kx2_q, mat))
        assert bool(plain) == bool(twisted)


# ---------------------------------------------------------------------------
# residuals and the graph criterion

def test_structure_residual_zero_iff_grb(kx2_q):
    rng = random.Random(44)
    M = canonical_bimodule(kx2_q)
    seen = {True: 0, False: 0}
    for _ in range(20):
        inst = OperatorInstance(kx2_q, M, random_tensor((2, 2), QQ, rng))
        zero = structure_residual(inst).is_zero_map()
        verdict = bool(is_grb(inst))
        assert zero == verdict
        seen[verdict] += 1
    assert seen[False]


def test_structure_residual_identity_value(kx2_q):
    # p = id: residual((0,e0),(0,e0)) = (-e0, 0)
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q), identity(2, QQ))
    res = structure_residual(inst)
    got = res.tensor[2, 2]
    assert got[0] == Fraction(-1) and is_zero(got[1:])


def test_structure_residual_twisted_catalog_zero():
    assert structure_residual(tensor_square(kx2(QQ))).is_zero_map()


def test_structure_residual_characteristic_guards():
    A2 = kx2(F2)
    inst = OperatorInstance(A2, canonical_bimodule(A2), zeros((2, 2), F2))
    with pytest.raises(CharacteristicError):
        structure_residual(inst)
    A3 = kx2(F3)
    M3 = canonical_bimodule(A3)
    ok = OperatorInstance(A3, M3, zeros((2, 2), F3))
    assert structure_residual(ok).is_zero_map()  # 1/2 exists in F3
    twisted = OperatorInstance(A3, M3, zeros((2, 2), F3),
                               Cochain(A3, M3, zeros((2, 2, 2), F3)))
    with pytest.raises(CharacteristicError):
        structure_residual(twisted)  # 1/6 does not exist in F3


def test_twist_insertion_identity():
    # p^ o phi^ o (p^ (x) p^) = -(1/6)[[[phi^,p^],p^],p^] as tensors
    for inst in (tensor_square(kx2(QQ)), swap_instance(QQ)):
        p_hat = lift_operator(inst)
        phi_hat = lift_cocycle(inst)
        triple = g_bracket(g_bracket(g_bracket(phi_hat, p_hat), p_hat), p_hat)
        lhs = twist_insertion(inst)
        assert tensors_equal(lhs.tensor, triple.scale(Fraction(-1, 6)).tensor)


def graph_closed(inst):
    """The oracle's graph criterion on an OperatorInstance."""
    A, M = inst.algebra, inst.module
    phi = None if inst.cocycle is None else inst.cocycle.tensor
    return oracle_graph_check(A.field, A.c, M.left, M.right, inst.op,
                              phi) is None


def test_graph_check_exhaustive_agreement_f2():
    A = kx2(F2)
    M = canonical_bimodule(A)
    for entries in itertools.product(elements(F2), repeat=4):
        mat = np.array(entries, dtype=object).reshape(2, 2)
        inst = OperatorInstance(A, M, mat)
        assert bool(is_grb(inst)) == graph_closed(inst)


def test_graph_check_twisted_instance():
    inst = tensor_square(kx2(QQ))
    assert graph_closed(inst) and is_trb(inst)


def test_graph_check_identity_fails_over_q(kx2_q):
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q), identity(2, QQ))
    assert not graph_closed(inst)
    assert not is_grb(inst)


# ---------------------------------------------------------------------------
# morphism and homomorphism properties

def test_grb_composed_with_bimodule_morphism(kx2_q):
    # if f: M' -> M is a bimodule morphism and p is GRB, p o f is GRB; on
    # the canonical module of the commutative k[x]/(x^2), the bimodule
    # endomorphisms are exactly the multiplications m |-> u m
    rng = random.Random(47)
    inst = mult_by_x_instance(QQ)
    M = inst.module
    for _ in range(10):
        u = np.array([Fraction(rng.randint(-3, 3)) for _ in range(2)],
                     dtype=object)
        # row j of f is f(m_j) = u . m_j
        f_mat = np.array([vec_mat(u, M.left[:, j], QQ) for j in range(2)],
                         dtype=object)
        # confirm f really is a bimodule morphism before composing:
        # f(a . m) = a . f(m) and f(m . a) = f(m) . a for a = e_i, m = m_j
        for i in range(2):
            for j in range(2):
                fm = f_mat[j]
                assert tensors_equal(vec_mat(M.left[i, j], f_mat, QQ),
                                     vec_mat(fm, M.left[i], QQ))
                assert tensors_equal(vec_mat(M.right[j, i], f_mat, QQ),
                                     vec_mat(fm, M.right[:, i], QQ))
        composed = OperatorInstance(
            inst.algebra, inst.module, np.dot(f_mat, inst.op))
        assert is_grb(composed)


def test_twisted_operator_is_algebra_homomorphism():
    # p(m x n) = p(m) p(n) for the induced product on M
    for inst in (tensor_square(kx2(QQ)), swap_instance(QQ)):
        A, M, p = inst.algebra, inst.module, inst.op
        for i in range(M.dim):
            for j in range(M.dim):
                times = add(induced_product(p, M.left, M.right, i, j, QQ),
                            bilinear(inst.cocycle.tensor, p[i], p[j], QQ))
                assert tensors_equal(vec_mat(times, p, QQ),
                                     bilinear(A.c, p[i], p[j], QQ))


# ---------------------------------------------------------------------------
# associative Yang-Baxter

def test_aybe_zero_solution(kx2_q):
    assert is_zero(aybe_residual(kx2_q, zeros((2, 2), QQ)))


def test_aybe_null_algebra_everything_solves():
    N = null_algebra(QQ, 2)
    rng = random.Random(45)
    for _ in range(5):
        r = random_tensor((2, 2), QQ, rng)
        assert is_zero(aybe_residual(N, r))


def test_aybe_residual_matches_triple_loop_oracle(kx2_q):
    rng = random.Random(46)
    candidates = [random_tensor((2, 2), QQ, rng) for _ in range(10)]
    r = zeros((2, 2), QQ)
    r[0, 1] = QQ.one
    r[1, 0] = -QQ.one
    candidates.append(r)  # 1(x)x - x(x)1
    for r in candidates:
        engine = aybe_residual(kx2_q, r)
        oracle = aybe_oracle(kx2_q, r)
        for u in range(2):
            for v in range(2):
                for w in range(2):
                    assert engine[u, v, w] == oracle[u][v][w]


def test_r_tilde_zero(kx2_q):
    inst = r_tilde(kx2_q, zeros((2, 2), QQ))
    assert is_grb(inst)
    assert is_zero(inst.op)


def test_r_tilde_dual_bimodule_passes_check(kx2_q):
    inst = r_tilde(kx2_q, zeros((2, 2), QQ))
    assert bimodule_check(kx2_q, inst.module)


def test_r_tilde_preconditions(kx2_q):
    bad = zeros((2, 2), QQ)
    bad[0, 0] = QQ.one
    with pytest.raises(InputError):
        r_tilde(kx2_q, bad)  # not skew
    skew = zeros((2, 2), QQ)
    skew[0, 1] = QQ.one
    skew[1, 0] = -QQ.one
    assert not is_zero(aybe_residual(kx2_q, skew))
    with pytest.raises(InputError):
        r_tilde(kx2_q, skew)  # skew but not a solution


def test_skew_f2_solutions_give_grb_operators():
    for A in (kx2(F2), null_algebra(F2, 2)):
        sols = search_operators(A, None, "aybe")
        for r in sols:
            if not is_zero(r + r.T):
                continue
            inst = r_tilde(A, r)
            assert is_grb(inst)


# ---------------------------------------------------------------------------
# exhaustive search

def test_search_null_dim1_grb_all_maps():
    N = null_algebra(F2, 1)
    sols = search_operators(N, canonical_bimodule(N), "grb")
    assert len(sols) == 2  # both the zero map and the identity


def test_search_ground_field_grb_only_zero():
    G = ground_field_algebra(F2)
    sols = search_operators(G, canonical_bimodule(G), "grb")
    assert len(sols) == 1 and is_zero(sols[0])


def test_search_kx2_f2_contains_known_solutions():
    A = kx2(F2)
    sols = search_operators(A, canonical_bimodule(A), "grb")
    assert any(is_zero(s) for s in sols)
    assert any(is_zero(s - mult_by_x_instance(F2).op) for s in sols)
    # cross-checked against the independent graph criterion
    M = canonical_bimodule(A)
    for s in sols:
        assert oracle_graph_check(F2, A.c, M.left, M.right, s) is None


def test_search_orders_lexicographically():
    A = kx2(F2)
    sols = search_operators(A, canonical_bimodule(A), "grb")
    flat = [tuple(x.val for x in s.flat) for s in sols]
    assert flat == sorted(flat)


def test_search_budget():
    A = kx2(F2)
    with pytest.raises(CapacityError):
        search_operators(A, canonical_bimodule(A), "grb", budget=8)


def test_matrix_read_keeps_the_stored_encoding():
    """`.op` decodes the stored Encoded once and keeps it stored: every
    read is the same view of the integers the checks run on."""
    inst = mult_by_x_instance(QQ)
    assert isinstance(inst._op, Encoded)
    matrix = inst.op
    assert matrix is inst.op is inst._op.objects
    assert matrix.tolist() == [[0, 1], [0, 0]]
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 7        # would not reach the encoding the checks use


def test_checks_decide_on_the_matrix_op_shows(kx2_q):
    """A held matrix cannot be written, so `is_grb` decides on the
    scalars `op` shows: writing [[1, 1], [0, 0]] into the matrix of a
    GRB operator would leave a verdict that a fresh instance of the
    shown matrix contradicts."""
    M = canonical_bimodule(kx2_q)
    inst = OperatorInstance(kx2_q, M, [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="read-only"):
        inst.op[0, 0] = 1
    assert inst.op.tolist() == [[0, 1], [0, 0]]
    assert is_grb(inst) and is_grb(OperatorInstance(kx2_q, M, inst.op))
    assert not is_grb(OperatorInstance(kx2_q, M, [[1, 1], [0, 0]]))


def test_a_non_matrix_is_refused_where_a_matrix_is_read(kx2_q):
    """Every entry point reads its matrix once and refuses any other
    shape, here a vector, by its own shape check; a refusal that names
    the shape it got names the vector's."""
    from rbx.instances import invertible_cochain_instance, unit_section
    from rbx.structures import derivation_dual, grb_morphism_check

    A, M, v = kx2_q, canonical_bimodule(kx2_q), [0, 1]
    inst = mult_by_x_instance(QQ)
    for build, message in [
            (lambda: is_reynolds(A, v), "endomorphism"),
            (lambda: is_nijenhuis(A, v), "endomorphism"),
            (lambda: r_tilde(A, v), "r must be a 2x2 tensor"),
            (lambda: derivation_dual(inst, v, 1), "derivation must map"),
            (lambda: grb_morphism_check(v, v, inst, inst), "psi0 must map"),
            (lambda: unit_section(A, M, v, A.unit()), "f must map"),
            (lambda: invertible_cochain_instance(A, M, v), "1-cochain")]:
        with pytest.raises(InputError, match=message):
            build()
    for build, text in [
            (lambda: OperatorInstance(A, M, v),
             "operator matrix must be 2x2 (M -> A), got (2,)"),
            (lambda: extension(A, M, v),
             "2-cochain tensor has shape (2,), expected (2, 2, 2)"),
            (lambda: MultiMap(QQ, [[1, 0], [0, 1]]).scale(v),
             "scale takes one scalar, not a (2,) tensor")]:
        with pytest.raises(InputError) as refusal:
            build()
        assert str(refusal.value) == text


def test_r_tilde_operator_is_read_only():
    A = null_algebra(QQ, 2)            # every skew r solves the AYBE
    inst = r_tilde(A, [[0, 1], [-1, 0]])
    assert inst.op is inst._op.objects
    assert inst.op.tolist() == [[0, -1], [1, 0]]
    with pytest.raises(ValueError, match="read-only"):
        inst.op[0, 0] = 1


def test_candidate_work_is_what_the_products_count(monkeypatch):
    """The search's pure rule counts, from shapes, the work that the
    identity's products count on a block of one candidate."""
    works = []
    real = linalg._route

    def spy(field, ints, fits, work=None):
        if work is not None:            # a product, not a sum
            works.append(work)
        return real(field, ints, fits, work)

    monkeypatch.setattr(linalg, "_route", spy)
    rng = random.Random(5)
    K, N, ts = kx2(F3), null_algebra(F2, 3), tensor_square(kx2(F2))
    dual = dual_module(K)
    cases = [(kind, K, (), None) for kind in ("rb", "reynolds", "nijenhuis",
                                              "aybe")] + [
        ("rb", N, (), None), ("grb", K, (K._c, K._c), None),
        ("grb", K, (dual._left, dual._right), None),
        ("grb", ts.algebra, (ts.module._left, ts.module._right), None),
        ("trb", ts.algebra, (ts.module._left, ts.module._right),
         ts.cocycle._tensor)]
    for kind, A, actions, twist in cases:
        rows = actions[0].shape[1] if actions else A.dim
        op = Encoded(A.field, linalg.IntTensor((1, rows, A.dim), [
            rng.randrange(A.field.p) for _ in range(rows * A.dim)]))
        works.clear()
        if kind == "aybe":
            operators._aybe_residual(A._c, op)
        else:
            operators._identity_sides(kind, op, A._c, *actions, twist=twist)
        shared = kind != "aybe" and (not actions or actions[0] is A._c)
        assert sum(works) == operators._candidate_work(
            kind, A.dim, rows, shared, twist is not None), kind


def test_search_past_the_int64_index_is_refused_whatever_the_budget():
    N = null_algebra(F2, 8)
    for budget in (2 ** 64, 2 ** 70):
        with pytest.raises(CapacityError, match=r"2\^64 = 18446744073709551616"):
            search_operators(N, None, "rb", budget=budget)


def test_search_requires_prime_field(kx2_q):
    with pytest.raises(InputError):
        search_operators(kx2_q, canonical_bimodule(kx2_q), "grb")


def test_search_rb_reynolds_nijenhuis_kinds():
    A = kx2(F2)
    rb = search_operators(A, None, "rb")
    rey = search_operators(A, None, "reynolds")
    nij = search_operators(A, None, "nijenhuis")
    assert all(is_classical_rb(A, s) for s in rb)
    assert all(is_reynolds(A, s) for s in rey)
    assert all(is_nijenhuis(A, s) for s in nij)
    assert len(nij) >= 2  # identity and zero at least
    assert len(rey) >= 2


def test_f65537_search_runs_in_int64(monkeypatch):
    # each contraction is bounded by its own operands, reduced mod p first
    # when that keeps it in int64; at d = 1 every sum has a single term
    seen = []       # the spy asserts int64 operands of numpy products
    spy_products(monkeypatch, lambda route, *_: seen.append(route))
    p = 65537
    G = ground_field_algebra(PrimeField(p))
    nij = search_operators(G, None, "nijenhuis", budget=p)
    assert [s[0, 0].val for s in nij] == list(range(p))
    rb = search_operators(G, None, "rb", budget=p)
    assert [s.tolist() for s in rb] == [[[0]]]
    assert "int64" in seen


@pytest.mark.parametrize("kind", ["grb", "rb", "reynolds", "nijenhuis",
                                  "aybe"])
def test_search_refuses_a_twist_on_untwisted_kinds(kind):
    A = kx2(F2)
    M = canonical_bimodule(A)
    with pytest.raises(InputError, match=f"search kind '{kind}' takes no "
                                         f"twist cochain"):
        operators.search_rows(A, M, kind, cocycle=Cochain(A, M, -A.c))
    with pytest.raises(InputError, match="'trb' needs the twist cochain"):
        operators.search_rows(A, M, "trb")


def test_search_trb_kind():
    A = kx2(F2)
    M = canonical_bimodule(A)
    phi = Cochain(A, M, -A.c)
    sols = search_operators(A, M, "trb", cocycle=phi)
    rey = search_operators(A, None, "reynolds")
    assert len(sols) == len(rey)
    for s, t in zip(sols, rey):
        assert tensors_equal(s, t)


@pytest.mark.parametrize("route", ("pure", "numpy"))
@pytest.mark.parametrize("block", (1, 7))
def test_search_blocks_decide_as_one_block(block, route, monkeypatch):
    """Blocks of 1 and of 7 candidates (7 does not divide the 81 of kx2
    over F3) pass the candidates that one block of the whole space
    passes, for every kind, on both routes."""
    monkeypatch.setattr(linalg, "PURE_WORK",
                        2 ** 62 if route == "pure" else -1)
    A = kx2(F3)
    M = canonical_bimodule(A)
    cases = [("grb", dual_module(A), None), ("trb", M, Cochain(A, M, -A.c)),
             ("rb", None, None), ("reynolds", None, None),
             ("nijenhuis", None, None), ("aybe", None, None)]
    for kind, module, phi in cases:
        whole = operators.search_rows(A, module, kind, cocycle=phi)
        with monkeypatch.context() as patch:
            patch.setattr(operators, "SEARCH_BLOCK", block)
            blocked = operators.search_rows(A, module, kind, cocycle=phi)
        assert 0 < whole.shape[0] < 81, kind
        assert blocked.shape == whole.shape, kind
        assert blocked.ints.flat == whole.ints.flat, kind


def test_the_search_evaluates_a_pruned_tree(monkeypatch):
    """The candidates the search's contraction receives, counted without
    timing: rb on mult-by-x over F31 (923,521 candidates) evaluates at
    most 30,757 of them, the 5 rows that read its supports included, and
    nijenhuis on kx2 over F3 (81) is one evaluation of the whole space."""
    blocks = []
    real = operators._residual

    def counting(kind, block, *args, **kwargs):
        blocks.append(block.shape[0])
        return real(kind, block, *args, **kwargs)

    monkeypatch.setattr(operators, "_residual", counting)
    assert len(search_operators(kx2(PrimeField(31)), None, "rb")) == 31
    assert sum(blocks) <= 30757
    blocks.clear()
    assert len(search_operators(kx2(F3), None, "nijenhuis")) == 15
    assert blocks == [81]


# ---------------------------------------------------------------------------
# the four-way equivalence, exhaustively

def test_four_way_equivalence_on_enumeration_pairs():
    for name, A, M in enumeration_pairs():
        field = A.field
        ext = Algebra(field, extension(A, M))
        ext_mod = canonical_bimodule(ext)
        n_entries = M.dim * A.dim
        for entries in itertools.product(elements(field), repeat=n_entries):
            mat = np.array(entries, dtype=object).reshape(M.dim, A.dim)
            inst = OperatorInstance(A, M, mat)
            direct = bool(is_grb(inst))
            lifted = bool(is_grb(OperatorInstance(
                ext, ext_mod, lift_operator(inst).tensor)))
            assert direct == graph_closed(inst) == lifted, name
            if field.char > 2:
                assert direct == structure_residual(inst).is_zero_map(), name
