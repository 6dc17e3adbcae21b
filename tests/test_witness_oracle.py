"""Differential sweep: every identity checker against the nested-loop
evaluators of oracle.py on random inputs over Q, F2, F3 and F5.

Verdict, witness, both sides, detail and the failures tuple must agree
exactly; the sides must hold scalars of the field itself, since the CLI
formats them.  Exhaustive searches over F2, F3 and F5, and the
benchmark's searches over F7 on kx2, must return exactly the
brute-force list of candidates the evaluators accept, in order.
"""

import itertools
import random

import numpy as np
import pytest

from oracle import (aybe_oracle, elements, oracle_assoc, oracle_bimodule,
                    oracle_dendriform, oracle_nijenhuis, oracle_operator,
                    oracle_reynolds, random_scalar)
from propositions import dual_module
from rbx.algebra import (Bimodule, assoc_check, bimodule_check,
                         canonical_bimodule)
from rbx import linalg, operators
from rbx.cochains import Cochain, coboundary
from rbx.fields import F2, F3, F5, QQ, FpElement, PrimeField
from rbx.instances import kx2, null_algebra, tensor_square
from rbx.linalg import Encoded
from rbx.operators import (OperatorInstance, is_grb, is_nijenhuis, is_reynolds,
                           is_trb, search_operators, search_rows)
from rbx.structures import Dendriform, NSAlgebra, check_dendriform, check_ns

FIELDS = (QQ, F2, F3, F5)
F7 = PrimeField(7)


def sparse_tensor(shape, field, rng, density=0.5):
    arr = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        arr[idx] = random_scalar(field, rng) if rng.random() < density \
            else field.zero
    return arr


def pairs(field):
    """(algebra, module) pairs: kx2 with its canonical and dual modules,
    and null algebras of dimensions 2 and 3."""
    A = kx2(field)
    out = [(A, canonical_bimodule(A)), (A, dual_module(A))]
    for dim in (2, 3):
        N = null_algebra(field, dim)
        out.append((N, canonical_bimodule(N)))
    return out


def assert_side(got, want, field):
    if want is None:
        assert got is None
        return
    got = np.asarray(got, dtype=object)
    flat = list(got.flat)
    assert flat == (list(want) if isinstance(want, list) else [want])
    assert all(type(x) is type(field.zero) for x in flat)


def assert_matches(verdict, expected, field, detail=""):
    if expected is None:
        assert verdict.ok and verdict.witness is None
        assert verdict.lhs is None and verdict.rhs is None
        return
    witness, lhs, rhs = expected
    assert not verdict.ok
    assert verdict.witness == witness
    assert all(type(i) is int for i in verdict.witness)
    assert_side(verdict.lhs, lhs, field)
    assert_side(verdict.rhs, rhs, field)
    assert verdict.detail == detail


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_operator_checkers_match_oracle(field):
    rng = random.Random(field.char * 100 + 7)
    failing = 0
    for A, M in pairs(field):
        for _ in range(12):
            density = rng.choice((0.2, 0.5, 0.9))
            p = sparse_tensor((M.dim, A.dim), field, rng, density)
            verdict = is_grb(OperatorInstance(A, M, p))
            expected = oracle_operator(field, A.c, M.left, M.right, p)
            assert_matches(verdict, expected, field)
            failing += expected is not None
            # a coboundary is always a cocycle
            w = sparse_tensor((A.dim, M.dim), field, rng, density)
            phi = coboundary(Cochain(A, M, w))
            verdict = is_trb(OperatorInstance(A, M, p, phi))
            expected = oracle_operator(field, A.c, M.left, M.right, p,
                                       phi.tensor)
            assert_matches(verdict, expected, field)
            if M.left is A.c:
                r = sparse_tensor((A.dim, A.dim), field, rng, density)
                assert_matches(is_reynolds(A, r),
                               oracle_reynolds(field, A.c, r), field)
                assert_matches(is_nijenhuis(A, r),
                               oracle_nijenhuis(field, A.c, r), field)
    assert failing


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_assoc_check_matches_oracle(field):
    rng = random.Random(field.char * 100 + 11)
    for A, _ in pairs(field):
        c = A.c.copy()
        assert_matches(assoc_check(Encoded.of(field, c)),
                       oracle_assoc(field, c), field)
        for _ in range(6):
            c = A.c.copy()
            # perturb one entry, so the first failure can sit anywhere
            idx = tuple(rng.randrange(s) for s in c.shape)
            c[idx] = c[idx] + random_scalar(field, rng)
            assert_matches(assoc_check(Encoded.of(field, c)),
                           oracle_assoc(field, c), field,
                           detail="associativity fails")
        c = sparse_tensor(A.c.shape, field, rng, 0.3)
        assert_matches(assoc_check(Encoded.of(field, c)),
                       oracle_assoc(field, c), field,
                       detail="associativity fails")


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_bimodule_check_matches_oracle(field):
    rng = random.Random(field.char * 100 + 13)
    for A, M in pairs(field):
        for trial in range(8):
            left, right = M.left.copy(), M.right.copy()
            if trial % 2:
                left = sparse_tensor(left.shape, field, rng, 0.3)
            else:
                side = right if trial % 4 else left
                idx = tuple(rng.randrange(s) for s in side.shape)
                side[idx] = side[idx] + random_scalar(field, rng)
            verdict = bimodule_check(A, Bimodule(A, left, right, check=False))
            expected = oracle_bimodule(field, A.c, left, right)
            if expected is None:
                assert verdict.ok and verdict.witness is None
            else:
                assert not verdict.ok
                assert (verdict.witness, verdict.detail) == expected
                assert all(type(i) is int for i in verdict.witness)
                assert verdict.lhs is None and verdict.rhs is None


def assert_failures(verdict, expected, field):
    if not expected:
        assert verdict.ok and verdict.failures == ()
        return
    assert not verdict.ok
    assert verdict.witness == expected[0][1]
    assert verdict.detail == "; ".join(sorted(f[0] for f in expected))
    assert len(verdict.failures) == len(expected)
    for got, want in zip(verdict.failures, expected):
        assert got[0] == want[0] and got[1] == want[1]
        assert all(type(i) is int for i in got[1])
        assert_side(got[2], want[2], field)
        assert_side(got[3], want[3], field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_dendriform_and_ns_checkers_match_oracle(field):
    rng = random.Random(field.char * 100 + 17)
    for _ in range(10):
        d = rng.choice((2, 3))
        density = rng.choice((0.15, 0.4, 0.8))
        succ, prec, vee = (sparse_tensor((d, d, d), field, rng, density)
                           for _ in range(3))
        assert_failures(check_dendriform(Dendriform(field, succ, prec)),
                        oracle_dendriform(field, succ, prec), field)
        assert_failures(check_ns(NSAlgebra(field, succ, prec, vee)),
                        oracle_dendriform(field, succ, prec, vee), field)
    # structures that hold: the zero products
    z = np.full((2, 2, 2), field.zero, dtype=object)
    assert_failures(check_ns(NSAlgebra(field, z, z, z)), [], field)


def search_cases(field, rng):
    """(kind, algebra, module, twist) for every search whose space is at
    most 625: GRB and TRB (random coboundary twist) on the pairs,
    rb/reynolds/nijenhuis/aybe on their algebras, and the tensor square of
    kx2 with its twist.  On null3 every candidate passes every kind, so
    only GRB runs there."""
    cases = []
    for A, M in pairs(field):
        cases.append(("grb", A, M, None))
        if A.dim == 3:
            continue
        w = sparse_tensor((A.dim, M.dim), field, rng, 0.5)
        cases.append(("trb", A, M, coboundary(Cochain(A, M, w))))
        if M.left is A.c:
            cases += [(kind, A, None, None)
                      for kind in ("rb", "reynolds", "nijenhuis", "aybe")]
    ts = tensor_square(kx2(field))
    cases.append(("trb", ts.algebra, ts.module, ts.cocycle))
    return [case for case in cases
            if field.char ** (case[1].dim * (case[2] or case[1]).dim) <= 625]


# the benchmark's sparse searches: mult-by-x over F7, 2,401 candidates each
F7_KINDS = ("nijenhuis", "reynolds", "aybe")


def oracle_accepts(kind, A, M, phi, p):
    """The nested-loop verdict on one search candidate."""
    field = A.field
    if kind == "aybe":
        return not any(x for plane in aybe_oracle(A, p) for row in plane
                       for x in row)
    if kind == "reynolds":
        return oracle_reynolds(field, A.c, p) is None
    if kind == "nijenhuis":
        return oracle_nijenhuis(field, A.c, p) is None
    M = M or canonical_bimodule(A)
    return oracle_operator(field, A.c, M.left, M.right, p,
                           None if phi is None else phi.tensor) is None


def no_numpy():
    raise AssertionError("the pure search route reached numpy")


@pytest.mark.parametrize("route", ("pure", "numpy"))
@pytest.mark.parametrize("field", (F2, F3, F5, F7), ids=lambda f: f.name)
def test_search_matches_brute_force_oracle(field, route, monkeypatch):
    """Both search routes: every block and product on the pure kernel,
    which reaches no numpy, and every block on int64 numpy.  Over F7, the
    searches on the algebra of mult-by-x (kx2) that the benchmark runs."""
    monkeypatch.setattr(linalg, "PURE_WORK", 2 ** 62 if route == "pure" else -1)
    rng = random.Random(field.char * 100 + 19)
    cases = [(kind, kx2(field), None, None) for kind in F7_KINDS] \
        if field is F7 else search_cases(field, rng)
    kinds = set()
    for kind, A, M, phi in cases:
        rows = (M or A).dim
        with monkeypatch.context() as patch:
            if route == "pure":
                patch.setattr(linalg, "_np", no_numpy)
                patch.setattr(operators, "_np", no_numpy)
            found = search_rows(A, M, kind, cocycle=phi)
        sols = search_operators(A, M, kind, cocycle=phi)
        brute = []
        for entries in itertools.product(elements(field), repeat=rows * A.dim):
            cand = np.array(entries, dtype=object).reshape(rows, A.dim)
            if oracle_accepts(kind, A, M, phi, cand):
                brute.append(tuple(x.val for x in entries))
        # one Encoded stack over scale 1, on an IntTensor on either route
        assert isinstance(found.ints, linalg.IntTensor) and found.scale == 1
        assert found.shape == (len(brute), rows, A.dim)
        assert found.ints.flat == list(itertools.chain(*brute)), kind
        assert [tuple(x.val for x in s.flat) for s in sols] == brute, kind
        assert all(s.shape == (rows, A.dim) for s in sols)
        assert all(type(x) is FpElement and x.p == field.char
                   for s in sols for x in s.flat)
        kinds.add(kind)
    assert kinds == (set(F7_KINDS) if field is F7 else
                     {"grb", "rb", "trb", "reynolds", "nijenhuis", "aybe"})
