"""Differential tests of every identity site that runs on the integer
encoding: associativity, the bimodule axioms, the four operator
identities, the dendriform/NS axioms, MultiMap +/-/neg, `half_square`
and the M-restriction compare `addexp_check` implies.

Each site is compared with the nested-loop evaluators of oracle.py and
with an object-dtype reference, the same contractions on the scalars'
own arithmetic (the evaluation rbx ran before the encoding), over Q, F2,
F5, F7 and F_(2^31-1): verdict, witness, both sides and their scalar
types.  The Python-int fallback (the pure kernel, for products and sums
int64 cannot hold) is forced at each site with Q numerators near 2^62
and all-(p-1) tensors over F_(2^31-1), and observed with a spy on the
route of every contraction.  The Q scale rule (sides compared as
lhs * rhs_scale against rhs * lhs_scale) has its own tests.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracle import (oracle_assoc, oracle_bimodule, oracle_dendriform,
                    oracle_graph_check, oracle_nijenhuis, oracle_operator,
                    oracle_reynolds, random_scalar, zeros)
from propositions import dual_module
from rbx import cli, linalg
from rbx.algebra import (Bimodule, Verdict, assoc_check, bimodule_check,
                         canonical_bimodule)
from rbx.cochains import Cochain, coboundary
from rbx.fields import F2, F5, QQ, FpElement, PrimeField
from rbx.flows import addexp_check, exp_flow
from rbx.gerstenhaber import MultiMap, half_square
from rbx.instances import (kx2, mult_by_x_instance, null_algebra,
                           tensor_square, truncated_polynomial)
from rbx.linalg import Encoded, IntTensor, first_nonzero_index
from rbx.operators import (OperatorInstance, induced_products, is_grb,
                           is_nijenhuis, is_reynolds, is_trb,
                           lift_operator, semidirect_mult_map)
from rbx.structures import Dendriform, NSAlgebra, check_dendriform, check_ns
from test_contract import spy_products as spy_kernel, spy_routes

BIG = PrimeField(2 ** 31 - 1)
FIELDS = (QQ, F2, F5, PrimeField(7), BIG)


# ---------------------------------------------------------------------------
# object-dtype references: the contractions on Fraction/FpElement scalars


def ref_compare(lhs, rhs, k):
    """(witness, lhs, rhs) at the first index over the leading k axes
    where the object tensors differ (rhs None: where lhs is nonzero)."""
    idx = first_nonzero_index(lhs if rhs is None else lhs - rhs, k)
    if idx is None:
        return None
    return idx, lhs[idx], None if rhs is None else rhs[idx]


def ref_assoc(c):
    return ref_compare(np.tensordot(c, c, ([2], [0])),
                       np.tensordot(c, c, ([1], [2])).transpose(0, 2, 3, 1), 4)


def ref_bimodule(c, L, R):
    lhs = np.stack([np.tensordot(c, L, ([2], [0])),
                    np.tensordot(c, R, ([2], [1])),
                    np.tensordot(L, R, ([2], [0])).transpose(0, 2, 1, 3)], 3)
    rhs = np.stack([np.tensordot(L, L, ([2], [1])).transpose(2, 0, 1, 3),
                    np.tensordot(R, R, ([2], [0])).transpose(1, 2, 0, 3),
                    np.tensordot(R, L, ([2], [1])).transpose(2, 1, 0, 3)], 3)
    bad = first_nonzero_index(lhs - rhs, 5)
    return None if bad is None else (bad[3], *bad[:3], bad[4])


def ref_pullback(t, m):
    """t(m_i, m_j) for the rows of m."""
    inner = np.tensordot(m, t, ([1], [0]))                  # [i, b, l]
    return np.tensordot(m, inner, ([1], [1])).swapaxes(0, 1)


def ref_sides(kind, p, c, left=None, right=None, twist=None):
    if left is None:
        left = right = c
    succ = np.tensordot(p, left, ([1], [0]))
    prec = np.tensordot(p, right, ([1], [1])).swapaxes(0, 1)
    lhs = ref_pullback(c, p)
    inner = succ + prec
    if kind == "reynolds":
        inner = inner - lhs
    elif kind == "nijenhuis":
        inner = inner - np.matmul(c, p)
    elif twist is not None:
        inner = inner + ref_pullback(twist, p)
    return lhs, np.matmul(inner, p)


def ref_axioms(succ, prec, vee=None):
    total = succ + prec if vee is None else succ + prec + vee

    def left(a, b):
        return np.tensordot(a, b, ([2], [0]))

    def right(a, b):
        return np.tensordot(a, b, ([1], [2])).transpose(0, 2, 3, 1)

    sides = [(left(prec, prec), right(prec, total)),
             (left(succ, prec), right(succ, prec)),
             (right(succ, succ), left(total, succ))]
    if vee is not None:
        sides.append((right(succ, vee) - left(total, vee)
                      + right(vee, total) - left(vee, prec), None))
    names = ("d1", "d2", "d3") if vee is None else ("t1", "t2", "t3", "t4")
    found = [(name, ref_compare(lhs, rhs, 3))
             for name, (lhs, rhs) in zip(names, sides)]
    return [(name, *hit) for name, hit in found if hit is not None]


def ref_circ(f, g, i):
    m, n = f.ndim - 1, g.ndim - 1
    perm = (list(range(0, i - 1)) + list(range(m, m + n))
            + list(range(i - 1, m - 1)) + [m - 1])
    return np.transpose(np.tensordot(f, g, ([i - 1], [n])), perm)


# ---------------------------------------------------------------------------
# comparisons


def same_scalars(got, want, field):
    """Equal values, and every entry a scalar of `field` itself."""
    if want is None:
        assert got is None
        return
    got, want = (np.asarray(x, dtype=object) for x in (got, want))
    assert got.shape == want.shape
    for x, y in zip(got.flat, want.flat):
        assert x == y
        if field.char:
            assert type(x) is FpElement and x.p == field.p and type(x.val) is int
        else:
            assert type(x) is Fraction and type(x.numerator) is int


def same_verdict(verdict, ref, field, oracle=None):
    """A Verdict against the object reference (witness, lhs, rhs) and, when
    given, the oracle's (witness, lhs list, rhs list)."""
    if ref is None:
        assert verdict.ok and verdict.witness is None
        assert oracle is None
        return
    assert not verdict.ok
    assert verdict.witness == ref[0]
    assert all(type(i) is int for i in verdict.witness)
    same_scalars(verdict.lhs, ref[1], field)
    same_scalars(verdict.rhs, ref[2], field)
    if oracle is not None:
        assert oracle[0] == ref[0]
        same_scalars(verdict.lhs, np.array(oracle[1], dtype=object), field)
        same_scalars(verdict.rhs, np.array(oracle[2], dtype=object), field)


def sparse(shape, field, rng, density=0.5):
    arr = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        arr[idx] = random_scalar(field, rng) if rng.random() < density \
            else field.zero
    return arr


def pairs(field):
    A = kx2(field)
    out = [(A, canonical_bimodule(A)), (A, dual_module(A))]
    for dim in (2, 3):
        N = null_algebra(field, dim)
        out.append((N, canonical_bimodule(N)))
    return out


def spy_products(monkeypatch):
    """Send every product int64 holds to numpy and record every product
    the kernel runs: ("int64" or "pure", terms, the two operands)."""
    monkeypatch.setattr(linalg, "PURE_WORK", -1)
    seen = []
    spy_kernel(monkeypatch, lambda *call: seen.append(call))
    return seen


def on_numpy(enc):
    """The same encoding with its integers in an int64 numpy array."""
    return Encoded(enc.field, linalg.to_numpy(enc.ints), enc.scale)


def near_2_62(shape, rng, denominators=(1, 1, 3, 7)):
    arr = np.empty(shape, dtype=object)
    arr.flat = [Fraction(rng.choice((1, -1)) * (2 ** 62 - rng.randint(0, 9)),
                         rng.choice(denominators)) for _ in range(arr.size)]
    return arr


def top(shape, field=BIG):
    arr = np.empty(shape, dtype=object)
    arr[...] = field.from_int(-1)
    return arr


# ---------------------------------------------------------------------------
# associativity and the bimodule axioms


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_assoc_matches_oracle_and_object_path(field):
    rng = random.Random(field.char % 1000 + 1)
    for A, _ in pairs(field):
        for trial in range(5):
            c = A.c.copy()
            if trial:
                idx = tuple(rng.randrange(s) for s in c.shape)
                c[idx] = c[idx] + random_scalar(field, rng)
            same_verdict(assoc_check(Encoded.of(field, c)), ref_assoc(c),
                         field, oracle_assoc(field, c))
        c = sparse(A.c.shape, field, rng, 0.4)
        same_verdict(assoc_check(Encoded.of(field, c)), ref_assoc(c), field,
                     oracle_assoc(field, c))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_bimodule_matches_oracle_and_object_path(field):
    rng = random.Random(field.char % 1000 + 2)
    for A, M in pairs(field):
        for trial in range(6):
            left, right = M.left.copy(), M.right.copy()
            if trial % 2:
                left = sparse(left.shape, field, rng, 0.3)
            else:
                side = right if trial % 4 else left
                idx = tuple(rng.randrange(s) for s in side.shape)
                side[idx] = side[idx] + random_scalar(field, rng)
            verdict = bimodule_check(A, Bimodule(A, left, right, check=False))
            ref = ref_bimodule(A.c, left, right)
            expected = oracle_bimodule(field, A.c, left, right)
            assert verdict.witness == ref == (expected and expected[0])
            assert verdict.ok == (ref is None)


def test_assoc_and_bimodule_fall_back_to_python_ints(monkeypatch):
    rng = random.Random(62)
    cases = [near_2_62((2, 2, 2), rng), near_2_62((3, 3, 3), rng),
             top((3, 3, 3))]
    refs = [ref_assoc(c) for c in cases]
    A = null_algebra(QQ, 2)
    L, R = near_2_62((2, 2, 2), rng), near_2_62((2, 2, 2), rng)
    bimodule_ref = ref_bimodule(A.c, L, R)
    seen = spy_routes(monkeypatch)
    for c, ref in zip(cases, refs):
        field = BIG if isinstance(c.flat[0], FpElement) else QQ
        same_verdict(assoc_check(Encoded.of(field, c)), ref, field)
    assert bimodule_check(A, Bimodule(A, L, R, check=False)).witness == \
        bimodule_ref
    assert seen and all(route == "pure" for route in seen)


def test_f_2_31_minus_1_assoc_is_int64_at_d_2_and_pure_at_d_3(monkeypatch):
    seen = spy_routes(monkeypatch)
    for d in (2, 3):
        assert assoc_check(Encoded.of(BIG, top((d, d, d))))
    # d (p-1)^2 < 2^63 exactly for d <= 2
    assert seen == ["int64", "int64", "pure", "pure"]


# ---------------------------------------------------------------------------
# the four operator identities


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_operator_identities_match_oracle_and_object_path(field):
    rng = random.Random(field.char % 1000 + 3)
    failing = 0
    for A, M in pairs(field):
        for _ in range(4):
            p = sparse((M.dim, A.dim), field, rng, rng.choice((0.3, 0.8)))
            ref = ref_compare(*ref_sides("grb", p, A.c, M.left, M.right), 2)
            same_verdict(is_grb(OperatorInstance(A, M, p)), ref,
                         field, oracle_operator(field, A.c, M.left, M.right, p))
            failing += ref is not None
            phi = coboundary(Cochain(A, M, sparse((A.dim, M.dim), field, rng)))
            ref = ref_compare(*ref_sides("trb", p, A.c, M.left, M.right,
                                         phi.tensor), 2)
            same_verdict(is_trb(OperatorInstance(A, M, p, phi)),
                         ref, field, oracle_operator(field, A.c, M.left,
                                                     M.right, p, phi.tensor))
            if M.left is A.c:
                r = sparse((A.dim, A.dim), field, rng)
                same_verdict(is_reynolds(A, r),
                             ref_compare(*ref_sides("reynolds", r, A.c), 2),
                             field, oracle_reynolds(field, A.c, r))
                same_verdict(is_nijenhuis(A, r),
                             ref_compare(*ref_sides("nijenhuis", r, A.c), 2),
                             field, oracle_nijenhuis(field, A.c, r))
    assert failing


def test_operator_identities_fall_back_to_python_ints(monkeypatch):
    # each contraction picks its own route: over F_(2^31-1) the two-term
    # products of a dimension-2 case fit int64 once their operands are
    # reduced mod p, so the fallback is forced there at dimension 3
    rng = random.Random(63)
    checks = []
    for field, make, d in ((QQ, lambda s: near_2_62(s, rng), 2),
                           (BIG, top, 2), (BIG, top, 3)):
        A = null_algebra(field, d)
        c = make((d, d, d))
        A._c = Encoded.of(field, c)           # a non-associative product
        M = Bimodule(A, make((d, d, d)), make((d, d, d)), check=False)
        p = make((d, d))
        phi = Cochain(A, M, make((d, d, d)))
        inst = OperatorInstance(A, M, p)
        case = (field, d)
        checks.append((case, lambda inst=inst: is_grb(inst),
                       ref_sides("grb", p, c, M.left, M.right)))
        twisted = OperatorInstance.__new__(OperatorInstance)
        twisted.__dict__.update(inst.__dict__, cocycle=phi)
        checks.append((case, lambda twisted=twisted: is_trb(twisted),
                       ref_sides("trb", p, c, M.left, M.right, phi.tensor)))
        for kind, check in (("reynolds", is_reynolds),
                            ("nijenhuis", is_nijenhuis)):
            checks.append((case, lambda check=check, A=A, p=p: check(A, p),
                           ref_sides(kind, p, c)))
    seen = spy_products(monkeypatch)
    python_ints = {}
    for case, run, sides in checks:
        start = len(seen)
        same_verdict(run(), ref_compare(*sides, 2), case[0])
        calls = seen[start:]
        assert calls
        # numpy exactly when int64 holds the operands reduced mod p, and
        # then on int64 operands
        for route, terms, a, b in calls:
            bounds = [linalg.max_abs(case[0].reduce(x)) for x in (a, b)]
            assert (route == "int64") == linalg.fits_int64(terms, *bounds)
            assert route == "pure" or a.dtype == b.dtype == np.int64
        python_ints[case] = python_ints.get(case, 0) + sum(
            route == "pure" for route, *_ in calls)
    assert python_ints[(QQ, 2)] and python_ints[(BIG, 3)]
    assert python_ints[(BIG, 2)] == 0


def test_trb_with_a_fractional_twist_keeps_the_extra_scale():
    # the twist term p(phi(p(m), p(n))) carries one more input than the
    # other terms, so over the common scale it has one more factor of it
    ts = tensor_square(kx2(QQ))
    A, M = ts.algebra, ts.module
    phi = Cochain(A, M, ts.cocycle.tensor * Fraction(1, 3))
    for p in (ts.op * Fraction(1, 2), ts.op * Fraction(3, 2)):
        verdict = is_trb(OperatorInstance(A, M, p, phi))
        ref = ref_compare(*ref_sides("trb", p, A.c, M.left, M.right,
                                     phi.tensor), 2)
        assert ref is not None
        same_verdict(verdict, ref, QQ,
                     oracle_operator(QQ, A.c, M.left, M.right, p, phi.tensor))
    # p = 3 mu with twist -(1/3) a(x)b is twisted Rota-Baxter again
    assert is_trb(OperatorInstance(A, M, ts.op * 3, phi))


# ---------------------------------------------------------------------------
# dendriform and NS axioms


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_axioms_match_oracle_and_object_path(field):
    rng = random.Random(field.char % 1000 + 4)
    for _ in range(6):
        d = rng.choice((2, 3))
        succ, prec, vee = (sparse((d, d, d), field, rng, rng.choice((0.2, 0.7)))
                           for _ in range(3))
        for verdict, ref, oracle in (
                (check_dendriform(Dendriform(field, succ, prec)),
                 ref_axioms(succ, prec), oracle_dendriform(field, succ, prec)),
                (check_ns(NSAlgebra(field, succ, prec, vee)),
                 ref_axioms(succ, prec, vee),
                 oracle_dendriform(field, succ, prec, vee))):
            assert [f[:2] for f in ref] == [f[:2] for f in oracle]
            assert len(verdict.failures) == len(ref)
            for got, want in zip(verdict.failures, ref):
                assert got[:2] == want[:2]
                same_scalars(got[2], want[2], field)
                same_scalars(got[3], want[3], field)


def test_axioms_fall_back_to_python_ints(monkeypatch):
    rng = random.Random(64)
    cases = [(QQ, [near_2_62((2, 2, 2), rng) for _ in range(3)]),
             (BIG, [top((3, 3, 3)) for _ in range(3)])]
    refs = [ref_axioms(*t) for _, t in cases]
    seen = spy_routes(monkeypatch)
    for (field, tensors), ref in zip(cases, refs):
        verdict = check_ns(NSAlgebra(field, *tensors))
        assert [f[:2] for f in verdict.failures] == [f[:2] for f in ref]
        for got, want in zip(verdict.failures, ref):
            same_scalars(got[2], want[2], field)
            same_scalars(got[3], want[3], field)
    assert seen and all(route == "pure" for route in seen)


# ---------------------------------------------------------------------------
# MultiMap sums and half_square


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_multimap_sums_and_half_square_match_object_path(field):
    rng = random.Random(field.char % 1000 + 5)
    for dim in (2, 3):
        f, g = (sparse((dim,) * 3, field, rng, 0.6) for _ in range(2))
        p = sparse((dim, dim), field, rng, 0.6)
        F, G, P = MultiMap(field, f), MultiMap(field, g), MultiMap(field, p)
        same_scalars((F + G).tensor, f + g, field)
        same_scalars((F - G).tensor, f - g, field)
        same_scalars((-F).tensor, -f, field)
        first, second = ref_circ(f, p, 1), ref_circ(f, p, 2)
        both = ref_circ(first, p, 2)
        half = both - ref_circ(p, first, 1) - ref_circ(p, second, 1)
        for got, want in zip(half_square(F, P), (half, first, second, both)):
            same_scalars(got.tensor, want, field)


def test_multimap_sums_and_half_square_fall_back_to_python_ints(monkeypatch):
    rng = random.Random(65)
    # numerators near 2^62 over the scales 3, 7 and 1: each fits int64
    f, g = near_2_62((2, 2, 2), rng, (3,)), near_2_62((2, 2, 2), rng, (7,))
    p = near_2_62((2, 2), rng, (1,))
    # the operands on numpy, from where a sum int64 cannot hold goes pure
    F, G, P = (MultiMap(QQ, on_numpy(Encoded.of(QQ, t))) for t in (f, g, p))
    first, second = ref_circ(f, p, 1), ref_circ(f, p, 2)
    both = ref_circ(first, p, 2)
    half = both - ref_circ(p, first, 1) - ref_circ(p, second, 1)
    seen = spy_routes(monkeypatch)
    # the sum of two numerators near 2^62 over different scales needs more
    # than 63 bits: the sum itself is held in Python ints
    for got, want in (((F + G), f + g), ((F - G), f - g)):
        assert isinstance(got._tensor.ints, IntTensor)
        same_scalars(got.tensor, want, QQ)
    assert (-F)._tensor.ints.dtype == np.int64
    same_scalars((-F).tensor, -f, QQ)
    for got, want in zip(half_square(F, P), (half, first, second, both)):
        same_scalars(got.tensor, want, QQ)
    assert seen and all(route == "pure" for route in seen)
    T = MultiMap(BIG, top((3, 3, 3)))
    same_scalars((T + T).tensor, top((3, 3, 3)) + top((3, 3, 3)), BIG)
    same_scalars((T - T).tensor, zeros((3, 3, 3), BIG), BIG)


# ---------------------------------------------------------------------------
# the M-restriction compare addexp_check implies, and addexp past int64


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_addexp_restriction_compare_matches_object_path(field):
    """The compare tests/test_theorems.py runs on a truncating flow: its
    M x M block against (0 | the induced product), on the integers and on
    the objects, as is and with the product one off at (1, 0)."""
    inst = mult_by_x_instance(field)
    assert addexp_check(inst) and is_grb(inst)
    dA = inst.algebra.dim
    block = exp_flow(inst).total._tensor[dA:, dA:]
    got = block.objects
    succ, prec, vee = induced_products(inst)
    assert vee is None
    # p(m_i).m_j + m_i.p(m_j), on the objects
    p, L, R = inst.op, inst.module.left, inst.module.right
    want = np.tensordot(p, L, ([1], [0])) + \
        np.tensordot(R, p, ([1], [1])).transpose(0, 2, 1)
    same_scalars((succ + prec).objects, want, field)
    same_verdict(Verdict.compare(block[..., :dA], None, 2),
                 ref_compare(got[..., :dA], None, 2), field)
    same_verdict(Verdict.compare(block[..., dA:], succ + prec, 2),
                 ref_compare(got[..., dA:], want, 2), field)
    # a product one off at (1, 0), coefficient 0: the compare finds it
    bumped = want.copy()
    bumped[1, 0, 0] = bumped[1, 0, 0] + field.one
    ref = ref_compare(got[..., dA:], bumped, 2)
    assert ref[0] == (1, 0)
    same_verdict(Verdict.compare(block[..., dA:], Encoded.of(field, bumped), 2),
                 ref, field)


def scaled_truncated(N, field, scale):
    """Termwise integration times `scale`: Rota-Baxter of weight zero."""
    tp = truncated_polynomial(N, field)
    return OperatorInstance(tp.algebra, tp.module, tp.op * scale)


def test_addexp_falls_back_to_python_ints(monkeypatch):
    big = Fraction(2 ** 62 - 1, 3)
    inst = scaled_truncated(4, QQ, big)
    p = inst.op.copy()
    p[0, 1] = Fraction(1, 5)
    perturbed = OperatorInstance(inst.algebra, inst.module, p)
    seen = spy_routes(monkeypatch)
    assert addexp_check(inst)
    assert not addexp_check(perturbed)
    assert seen and "pure" in seen


# ---------------------------------------------------------------------------
# the Q scale rule of Verdict.compare


def test_equal_fractions_over_different_scales_compare_equal():
    nums = np.array([[3, -1], [0, 5]], dtype=np.int64)
    assert Verdict.compare(Encoded(QQ, nums, 2), Encoded(QQ, nums * 3, 6), 2)
    assert Verdict.compare(Encoded(QQ, nums * 7, 14),
                           Encoded(QQ, nums * 5, 10), 1)


def test_one_numerator_off_fails_at_the_lexicographic_witness():
    nums = np.array([[3, -1], [0, 5]], dtype=np.int64)
    off = nums * 3
    off[1, 1] += 1
    off[1, 0] -= 1
    verdict = Verdict.compare(Encoded(QQ, nums, 2), Encoded(QQ, off, 6), 2)
    assert verdict.witness == (1, 0)
    assert verdict.lhs == 0 and verdict.rhs == Fraction(-1, 6)
    # the other way round: the first side carries the larger scale
    verdict = Verdict.compare(Encoded(QQ, off, 6), Encoded(QQ, nums, 2), 1)
    assert verdict.witness == (1,)
    same_scalars(verdict.lhs, np.array([Fraction(-1, 6), Fraction(16, 6)]), QQ)
    same_scalars(verdict.rhs, np.array([Fraction(0), Fraction(5, 2)]), QQ)


# ---------------------------------------------------------------------------
# listings from the encoding, and the graph criterion at degree 6


def ref_listing(field, tensor, labels):
    lines = []
    for idx in np.ndindex(tensor.shape):
        if bool(tensor[idx]):
            ins = ",".join(labels[i] for i in idx[:-1])
            lines.append(f"({ins}) -> {labels[idx[-1]]}: "
                         f"{field.format(tensor[idx])}")
    return lines or ["0 (zero map)"]


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=lambda f: f.name)
def test_tensor_listing_matches_an_entry_walk(field):
    rng = random.Random(field.char + 6)
    labels = ["a", "b", "c"]
    for arity in (1, 2, 3):
        shape = (3,) * (arity + 1)
        for tensor in (sparse(shape, field, rng, 0.4), zeros(shape, field)):
            mm = MultiMap(field, tensor)
            assert cli._tensor_listing(mm._tensor, labels) == \
                ref_listing(field, tensor, labels)
            # the same map built by the kernel, with a scale above 1
            doubled = mm + mm
            assert cli._tensor_listing(doubled._tensor, labels) == \
                ref_listing(field, tensor + tensor, labels)


def test_graph_check_agrees_with_is_grb_on_degree_6():
    tp = truncated_polynomial(6)
    inst = tp.instance()
    A, M = tp.algebra, tp.module
    assert oracle_graph_check(QQ, A.c, M.left, M.right, tp.op) is None
    assert is_grb(inst)
    p = tp.op.copy()
    p[2, 4] = Fraction(1, 7)
    bent = OperatorInstance(A, M, p)
    assert not is_grb(bent)
    assert oracle_graph_check(QQ, A.c, M.left, M.right, p) is not None


def test_lift_and_semidirect_maps_are_encoded_once():
    tp = truncated_polynomial(3)
    inst = tp.instance()
    assert lift_operator(inst)._tensor.scale == 6
    mu = semidirect_mult_map(inst)
    assert mu._tensor.scale == 1 and mu._tensor.ints.shape == (6, 6, 6)
