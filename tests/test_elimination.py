"""Exact elimination on the integer encoding, and the constructions and
checks that use it.

`row_reduce`, `rank` and `invert` are compared with the textbook
Gauss-Jordan elimination of oracle.py on random wide, tall, square,
rank-deficient and zero matrices over Q, F2, F5, F7 and F_(2^31-1).
`Algebra.unit`, `unit_section`, `derivation_dual`, `induced_actions`,
`r_tilde` and `grb_morphism_check` are checked over Q and prime fields
against references built from the tensors, the operator matrices and
the reference elimination; the graph criterion of oracle.py, on the
same elimination, is checked against the operator identities.
"""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalog_trb_instances, upper_triangular
from oracle import (add, basis, bilinear, identity, neg, oracle_graph_check,
                    oracle_row_reduce, random_scalar, random_tensor,
                    tensors_equal, vec_mat, zeros)
from propositions import r_tilde
from rbx.algebra import Algebra, canonical_bimodule, extension
from rbx.errors import InputError
from rbx.fields import F2, F3, F5, QQ, PrimeField
from rbx.instances import (kx2, mult_by_x_instance, null_algebra,
                           tensor_square, truncated_polynomial, unit_section,
                           unit_section_tensor_example)
from rbx.linalg import Encoded, invert, rank, row_reduce
from rbx.operators import OperatorInstance, is_grb, is_trb, search_operators
from rbx.structures import derivation_dual, grb_morphism_check, induced_actions

F7 = PrimeField(7)
BIG = PrimeField(2 ** 31 - 1)
FIELDS = (QQ, F2, F5, F7, BIG)


def random_matrix(field, rng, rows, cols, rank_at_most=None):
    """A random matrix; with `rank_at_most`, a product through that many
    columns, so its rank is at most that."""
    if rank_at_most is None:
        return random_tensor((rows, cols), field, rng)
    if rank_at_most == 0:
        return zeros((rows, cols), field)
    return np.dot(random_tensor((rows, rank_at_most), field, rng),
                  random_tensor((rank_at_most, cols), field, rng))


def matrices(field, seed):
    """Wide, tall, square, rank-deficient and zero matrices."""
    rng = random.Random(seed)
    out = [zeros((0, 3), field), zeros((3, 0), field), zeros((3, 4), field)]
    for _ in range(12):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        out.append(random_matrix(field, rng, rows, cols))
        out.append(random_matrix(field, rng, rows, cols,
                                 rng.randint(0, min(rows, cols, 3))))
        n = rng.randint(1, 5)
        square = random_matrix(field, rng, n, n)
        out.append(square)
        if n > 1:
            singular = square.copy()
            singular[-1] = singular[0] * random_scalar(field, rng)
            out.append(singular)
    return out


def assert_same_scalars(got, want, field):
    """Equal values, and every entry a scalar of `field`."""
    got = np.asarray(got, dtype=object)
    want = np.array(want, dtype=object)
    assert want.shape == got.shape or want.size == got.size == 0
    assert tensors_equal(got, want.reshape(got.shape))
    assert all(type(x) is type(field.zero) for x in got.flat)


# ---------------------------------------------------------------------------
# row_reduce, rank and invert against the reference elimination


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_row_reduce_rank_and_invert_match_the_reference(field):
    for m in matrices(field, 7):
        want, want_pivots = oracle_row_reduce(m)
        rref, pivots = row_reduce(Encoded.of(field, m))
        assert pivots == want_pivots
        assert_same_scalars(rref.objects, want, field)
        # a positive scale over Q, scale 1 over F_p
        assert rref.scale > 0 and (field.char == 0 or rref.scale == 1)
        assert rank(Encoded.of(field, m)) == len(want_pivots)
        n, k = m.shape
        if n != k:
            with pytest.raises(InputError, match="cannot invert"):
                invert(Encoded.of(field, m))
        elif len(want_pivots) < n:
            with pytest.raises(InputError, match="singular"):
                invert(Encoded.of(field, m))
        else:
            inverse = invert(Encoded.of(field, m)).objects
            ref, _ = oracle_row_reduce(
                np.concatenate([m, identity(n, field)], axis=1))
            assert_same_scalars(inverse, [row[n:] for row in ref], field)
            assert tensors_equal(np.dot(inverse, m), identity(n, field))


def test_row_reduce_is_exact_past_int64():
    # entries near 2^40 over small denominators: the minors that the
    # fraction-free steps divide pass 2^63 by the third pivot
    rng = random.Random(3)
    for _ in range(5):
        m = np.empty((6, 7), dtype=object)
        for idx in np.ndindex(m.shape):
            m[idx] = Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 9))
        m[5] = m[0] + m[1] * Fraction(1, 3)
        want, want_pivots = oracle_row_reduce(m)
        rref, pivots = row_reduce(Encoded.of(QQ, m))
        assert pivots == want_pivots == list(range(5))
        assert_same_scalars(rref.objects, want, QQ)
        square = m[:5, :5]
        assert tensors_equal(
            np.dot(invert(Encoded.of(QQ, square)).objects, square),
            identity(5, QQ))


@pytest.mark.parametrize("field", (QQ, F7), ids=lambda f: f.name)
def test_row_reduce_leaves_its_input_alone(field):
    m = Encoded.of(field, random_matrix(field, random.Random(4), 4, 5))
    before = m.ints.tolist()
    row_reduce(m)
    assert m.ints.tolist() == before


# ---------------------------------------------------------------------------
# Algebra.unit


def base_change(algebra, rng):
    """The algebra in a random basis: an isomorphic copy with dense
    structure constants, or None when the random matrix is singular."""
    field, d = algebra.field, algebra.dim
    T = random_tensor((d, d), field, rng)
    ref, pivots = oracle_row_reduce(np.concatenate([T, identity(d, field)], 1))
    if pivots != list(range(d)):
        return None
    T_inv = np.array([row[d:] for row in ref], dtype=object)
    return Algebra(field, np.einsum("ia,jb,abm,mk->ijk", T, T, algebra.c, T_inv))


@pytest.mark.parametrize("field", (QQ, F2, F5, F7), ids=lambda f: f.name)
def test_unit_is_a_two_sided_unit_or_none(field):
    rng = random.Random(5)
    unital = [kx2(field), tensor_square(kx2(field)).algebra,
              Algebra(field, extension(kx2(field),
                                       canonical_bimodule(kx2(field))))]
    non_unital = [null_algebra(field, 2)]
    if field.char == 0 or field.char > 4:
        non_unital.append(truncated_polynomial(4, field).algebra)
    for algebras, has_unit in ((unital, True), (non_unital, False)):
        for A in list(algebras):
            B = base_change(A, rng)
            if B is not None:
                algebras.append(B)
        for A in algebras:
            u = A.unit()
            if not has_unit:
                assert u is None
                continue
            assert all(type(x) is type(field.zero) for x in u)
            for j in range(A.dim):      # u e_j = e_j = e_j u
                e = basis(A.dim, j, field)
                assert tensors_equal(vec_mat(u, A.c[:, j], field), e)
                assert tensors_equal(vec_mat(u, A.c[j], field), e)


# ---------------------------------------------------------------------------
# the graph criterion


def perturbed(inst, rng):
    pi = inst.op.copy()
    i, j = rng.randrange(pi.shape[0]), rng.randrange(pi.shape[1])
    pi[i, j] = pi[i, j] + inst.field.from_int(rng.randint(1, 4))
    return OperatorInstance(inst.algebra, inst.module, pi, inst.cocycle)


@pytest.mark.parametrize("field", (QQ, F5, F7), ids=lambda f: f.name)
def test_the_graph_is_closed_iff_the_identity_holds(field):
    """The graph {(p(m), m)} is a subalgebra of A (+)_phi M exactly when p
    is a GRB (phi None) or TRB operator: on mult-by-x, the twisted
    catalog and truncated polynomials, and on perturbations of each."""
    rng = random.Random(6)
    instances = [mult_by_x_instance(field),
                 *catalog_trb_instances(field).values()]
    for N in (3, 4):
        if field.char == 0 or field.char > N:
            instances.append(truncated_polynomial(N, field).instance())
    failures = 0
    for inst in instances:
        for candidate in [inst] + [perturbed(inst, rng) for _ in range(3)]:
            A, M = candidate.algebra, candidate.module
            phi = None if candidate.cocycle is None else \
                candidate.cocycle.tensor
            escape = oracle_graph_check(field, A.c, M.left, M.right,
                                        candidate.op, phi)
            identity_holds = (is_grb if phi is None else is_trb)(candidate)
            assert (escape is None) == bool(identity_holds)
            failures += escape is not None
    assert failures


# ---------------------------------------------------------------------------
# unit_section, derivation_dual, induced_actions and r_tilde over F_p


@pytest.mark.parametrize("field", (QQ, F5, F7), ids=lambda f: f.name)
def test_unit_section_over_each_field(field):
    assert is_trb(unit_section_tensor_example(field))
    A = kx2(field)
    M = canonical_bimodule(A)
    inst = unit_section(A, M, identity(2, field), A.unit())
    assert tensors_equal(inst.cocycle.tensor, -A.c)
    not_e = zeros(2, field)
    not_e[1] = field.one
    with pytest.raises(InputError, match="not the unit"):
        unit_section(A, M, identity(2, field), not_e)
    shear = identity(2, field)      # 1 -> 1, x -> 1 + x
    shear[1, 0] = field.one
    with pytest.raises(InputError, match="not left A-linear"):
        unit_section(A, M, shear, A.unit())
    degenerate = zeros((2, 2), field)
    degenerate[0, 0] = field.one
    with pytest.raises(InputError, match="surjective"):
        unit_section(A, M, degenerate, A.unit())


@pytest.mark.parametrize("field", (QQ, F7), ids=lambda f: f.name)
def test_derivation_dual_over_each_field(field):
    tp = truncated_polynomial(5, field)
    dual = derivation_dual(tp.instance(), tp.omega, field.one)
    assert is_grb(dual)
    bad = tp.omega.copy()
    bad[0, 0] = bad[0, 0] + field.one
    with pytest.raises(InputError, match="not a derivation"):
        derivation_dual(tp.instance(), bad, field.one)
    with pytest.raises(InputError, match="z times the identity"):
        derivation_dual(tp.instance(), tp.omega, field.from_int(2))
    # z may be a Python int, read in the field: 1 + 7 is 1 in F7
    assert is_grb(derivation_dual(tp.instance(), tp.omega, 1 + field.char))
    with pytest.raises(InputError, match="z times the identity"):
        derivation_dual(tp.instance(), tp.omega, 2)


@pytest.mark.parametrize("field, z", [
    (QQ, F7.one), (QQ, 1.0), (QQ, True), (F7, Fraction(1, 2)), (F7, 1.0),
    (F7, "x")], ids=["Q-F7", "Q-float", "Q-bool", "F7-Fraction",
                     "F7-float", "F7-str"])
def test_derivation_dual_refuses_a_foreign_z(field, z):
    tp = truncated_polynomial(4, field)
    with pytest.raises(InputError, match=re.escape(
            f"z must be an int or a scalar of {field.name}: {z!r}")):
        derivation_dual(tp.instance(), tp.omega, z)


@pytest.mark.parametrize("field", (F2, F3), ids=lambda f: f.name)
def test_induced_actions_match_the_vector_api(field):
    A = upper_triangular(field)
    M = canonical_bimodule(A)
    for mat in search_operators(A, M, "grb")[:24]:
        inst = OperatorInstance(A, M, mat)
        actions = induced_actions(inst)
        p, c = inst.op, A.c
        for j, i in np.ndindex(M.dim, A.dim):
            # m = m_j, a = e_i: m ._p a = p(m) a - p(m . a) and
            # a ._p m = a p(m) - p(a . m)
            assert_same_scalars(actions.left[j, i],
                                add(vec_mat(p[j], c[:, i], field),
                                    neg(vec_mat(M.right[j, i], p, field))),
                                field)
            assert_same_scalars(actions.right[i, j],
                                add(vec_mat(p[j], c[i], field),
                                    neg(vec_mat(M.left[i, j], p, field))),
                                field)


def test_r_tilde_over_f5():
    A = null_algebra(F5, 2)
    r = zeros((2, 2), F5)
    r[0, 1], r[1, 0] = F5.from_int(2), F5.from_int(3)
    inst = r_tilde(A, r)
    assert_same_scalars(inst.op, r.T, F5)
    r[1, 0] = F5.from_int(2)
    with pytest.raises(InputError, match="skew"):
        r_tilde(A, r)


# ---------------------------------------------------------------------------
# grb_morphism_check with dA != dM


def reference_morphism(psi0, psi1, src, dst):
    """The first failure of grb_morphism_check by basis loops:
    (witness, detail), or None."""
    f0, f1, field = psi0, psi1, src.field
    p, q = src.op, dst.op
    for i, l in np.ndindex(src.module.dim, dst.algebra.dim):
        # psi0(p(m_i)) against q(psi1(m_i))
        if vec_mat(p[i], f0, field)[l] != vec_mat(f1[i], q, field)[l]:
            return (i, l), "square does not commute"
    M, N = src.module, dst.module
    for i, j in np.ndindex(src.algebra.dim, src.module.dim):
        # a = e_i, m = m_j
        if not tensors_equal(vec_mat(M.left[i, j], f1, field),
                             bilinear(N.left, f0[i], f1[j], field)):
            return (i, j), "left actions not intertwined"
        if not tensors_equal(vec_mat(M.right[j, i], f1, field),
                             bilinear(N.right, f1[j], f0[i], field)):
            return (i, j), "right actions not intertwined"
    return None


@pytest.mark.parametrize("field", (QQ, F5), ids=lambda f: f.name)
def test_morphism_of_the_tensor_square_instance(field):
    # dA = 2, dM = 4; psi1 = 1 + N with the rows of N in the left kernel
    # of mu keeps the square commuting, and most such N break an action
    ts = tensor_square(kx2(field))
    inst = OperatorInstance(ts.algebra, ts.module, ts.op)
    psi0 = identity(2, field)
    details = set()
    for r in range(4):
        for row in ((0, 1, -1, 0), (0, 0, 0, 1)):
            f1 = identity(4, field)
            f1[r] = f1[r] + np.array([field.from_int(x) for x in row],
                                     dtype=object)
            verdict = grb_morphism_check(psi0, f1, inst, inst)
            ref = reference_morphism(psi0, f1, inst, inst)
            if ref is None:
                assert verdict
            else:
                assert (verdict.witness, verdict.detail) == ref
            details.add(verdict.detail)
    swapped = identity(2, field)[::-1].copy()
    verdict = grb_morphism_check(swapped, identity(4, field), inst, inst)
    assert (verdict.witness, verdict.detail) == reference_morphism(
        swapped, identity(4, field), inst, inst)
    details.add(verdict.detail)
    assert details == {"", "square does not commute",
                       "left actions not intertwined",
                       "right actions not intertwined"}
