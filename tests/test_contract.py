"""Differential tests of the exact integer contraction kernel
(`Encoded.dot` and `Encoded.matmul`, and the views `transpose`,
`swapaxes` and indexing, decoded) against object-dtype numpy, which
dispatches to the scalars' own exact arithmetic: equal values and equal
scalar types, on the int64 path and on the Python-int fallback (the
pure kernel, for a product int64 cannot hold), and with F_p reduction
deferred across a chain of contractions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracle import FnMap, agrees_with_tensor, oracle_circ, random_tensor, zeros
from rbx import linalg
from rbx.fields import QQ, PrimeField
from rbx.gerstenhaber import ARITY_CAP, MultiMap, circ_i
from rbx.linalg import Encoded

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(7),
          PrimeField(2 ** 31 - 1)]


def contract(field, a, b, axes):
    """np.tensordot(a, b, axes) of tensors of `field` scalars: one integer
    contraction of the encoded operands, decoded."""
    return Encoded.of(field, a).dot(Encoded.of(field, b), axes).objects


def assert_same(got, ref, field):
    """Equal shapes, values and scalar types, entry by entry."""
    assert got.shape == ref.shape
    for x, y in zip(got.flat, ref.flat):
        assert type(x) is type(y) and x == y
        if field.char == 0:
            assert type(x.numerator) is int and type(x.denominator) is int
        else:
            assert x.p == y.p == field.p and type(x.val) is int


def slots(dim_range):
    """(dim, m, n, i): arities 1..3 of f and g within the arity cap,
    every insertion slot i of f."""
    for dim in dim_range:
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                if m + n - 1 <= ARITY_CAP:
                    for i in range(1, m + 1):
                        yield dim, m, n, i


def spy_routes(monkeypatch):
    """Send every product int64 holds to numpy and record the route of
    every integer contraction (tensordot or matmul): "int64" on numpy,
    whose two operands must be int64, or "pure" in the Python-int
    kernel."""
    monkeypatch.setattr(linalg, "PURE_WORK", -1)
    seen = []
    for name in ("tensordot", "matmul"):
        def spy(a, b, *axes, real=getattr(np, name)):
            assert a.dtype == b.dtype == np.int64
            seen.append("int64")
            return real(a, b, *axes)

        def pure(a, b, *axes, real=linalg._PURE[name]):
            seen.append("pure")
            return real(a, b, *axes)
        monkeypatch.setattr(np, name, spy)
        monkeypatch.setitem(linalg._PURE, name, pure)
    return seen


def check_slot(field, f, g, i):
    """contract at circ_i's axes against object tensordot, and circ_i
    against the nested-loop insertion."""
    n = g.ndim - 1
    axes = ([i - 1], [n])
    assert_same(contract(field, f, g, axes), np.tensordot(f, g, axes), field)
    engine = circ_i(MultiMap(field, f), MultiMap(field, g), i)
    assert agrees_with_tensor(oracle_circ(FnMap.from_tensor(field, f),
                                          FnMap.from_tensor(field, g), i),
                              engine.tensor)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_contract_matches_object_tensordot_at_every_slot(field):
    rng = random.Random(field.char)
    for dim, m, n, i in slots((1, 2, 3)):
        f = random_tensor((dim,) * (m + 1), field, rng)
        g = random_tensor((dim,) * (n + 1), field, rng)
        check_slot(field, f, g, i)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_contract_on_zero_and_integral_tensors(field):
    rng = random.Random(5)
    for dim, m, n, i in slots((1, 2)):
        shapes = ((dim,) * (m + 1), (dim,) * (n + 1))
        f, g = (random_tensor(s, field, rng) for s in shapes)
        zf, zg = (zeros(s, field) for s in shapes)
        whole_f, whole_g = (np.empty(s, dtype=object) for s in shapes)
        for t in (whole_f, whole_g):
            t.flat = [field.from_int(rng.randint(-4, 4)) for _ in range(t.size)]
        for a, b in ((zf, g), (f, zg), (zf, zg), (whole_f, whole_g)):
            check_slot(field, a, b, i)


def test_q_numerators_near_2_62_fall_back_to_python_ints(monkeypatch):
    rng = random.Random(62)
    cases = []
    for dim, m, n, i in slots((2, 3)):
        f, g = (np.empty((dim,) * (k + 1), dtype=object) for k in (m, n))
        for t in (f, g):
            t.flat = [Fraction(rng.choice((1, -1)) * (2 ** 62 - rng.randint(0, 9)),
                               rng.choice((1, 1, 3, 7)))
                      for _ in range(t.size)]
        cases.append((f, g, ([i - 1], [n]), np.tensordot(f, g, ([i - 1], [n]))))
    seen = spy_routes(monkeypatch)
    for f, g, axes, ref in cases:
        assert_same(contract(QQ, f, g, axes), ref, QQ)
    assert seen and all(route == "pure" for route in seen)


def test_f_2_31_minus_1_switches_to_python_ints_past_d_2(monkeypatch):
    field = PrimeField(2 ** 31 - 1)
    top = field.from_int(-1)                    # p - 1, the largest value
    refs = {}
    for dim in (2, 3):
        a = zeros((dim, dim), field)
        a[...] = top
        refs[dim] = (a, np.tensordot(a, a, ([1], [0])))
    seen = spy_routes(monkeypatch)
    for dim, (a, ref) in refs.items():
        assert_same(contract(field, a, a, ([1], [0])), ref, field)
    # 2 (p-1)^2 < 2^63 <= 3 (p-1)^2
    assert seen == ["int64", "pure"]


def test_contract_shares_one_scalar_per_distinct_value():
    a = zeros((3, 3), QQ)
    a[0, 0] = Fraction(1, 2)
    out = contract(QQ, a, a, ([1], [0]))
    assert out[0, 0] == Fraction(1, 4)
    assert len({id(x) for x in out.flat}) == 2


# ---------------------------------------------------------------------------
# matmul and the views, against object-dtype numpy

VIEW_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(2 ** 31 - 1)]


def large(shape, field, rng):
    """Entries that force Python ints past two-term sums: Q numerators
    near 2^62, or p - 1 everywhere over F_p."""
    t = np.empty(shape, dtype=object)
    if field.char:
        t[...] = field.from_int(-1)
    else:
        t.flat = [Fraction(rng.choice((1, -1)) * (2 ** 62 - rng.randint(0, 9)),
                           rng.choice((1, 1, 3, 7))) for _ in range(t.size)]
    return t


@pytest.mark.parametrize("field", VIEW_FIELDS, ids=lambda f: f.name)
def test_matmul_matches_object_matmul(field):
    rng = random.Random(field.char + 11)
    for make in (random_tensor, large):
        a, b = make((2, 3, 4), field, rng), make((2, 4, 3), field, rng)
        assert_same(Encoded.of(field, a).matmul(Encoded.of(field, b)).objects,
                    np.matmul(a, b), field)
        # an operator stack applied to the last axis of a batched tensor
        t, m = make((2, 3, 2, 4), field, rng), make((2, 4, 3), field, rng)
        got = Encoded.of(field, t).matmul(Encoded.of(field, m)[..., None, :, :])
        assert_same(got.objects, np.matmul(t, m[..., None, :, :]), field)


def test_matmul_falls_back_to_python_ints(monkeypatch):
    rng = random.Random(12)
    big = PrimeField(2 ** 31 - 1)
    cases = []
    for field, inner in ((QQ, 2), (QQ, 3), (big, 2), (big, 3)):
        a, b = large((2, 2, inner), field, rng), large((2, inner, 2), field, rng)
        cases.append((field, a, b, np.matmul(a, b)))
    seen = spy_routes(monkeypatch)
    for field, a, b, ref in cases:
        got = Encoded.of(field, a).matmul(Encoded.of(field, b))
        assert_same(got.objects, ref, field)
    # 2 (p-1)^2 < 2^63 <= 3 (p-1)^2
    assert seen == ["pure", "pure", "int64", "pure"]


@pytest.mark.parametrize("field", VIEW_FIELDS, ids=lambda f: f.name)
def test_views_match_object_numpy(field):
    rng = random.Random(field.char + 13)
    for make in (random_tensor, large):
        a, b = make((2, 3, 3), field, rng), make((3, 4), field, rng)
        # a product: a scale above 1 over Q, unreduced integers over F_p
        enc = Encoded.of(field, a).dot(Encoded.of(field, b), ([2], [0]))
        ref = np.tensordot(a, b, ([2], [0]))
        assert_same(enc.swapaxes(-1, 0).objects, ref.swapaxes(-1, 0), field)
        assert_same(enc.transpose(1, 2, 0).objects, ref.transpose(1, 2, 0),
                    field)
        for idx in ((1,), (slice(None), 2), (..., [0, 3]), (..., None, 1),
                    (0, [2, 0]), ([1, 0], slice(1, None))):
            assert_same(enc[idx].objects, ref[idx], field)


def test_deferred_reduction_across_a_chain_of_contractions(monkeypatch):
    field = PrimeField(2 ** 31 - 1)
    rng = random.Random(14)
    ms = [large((2, 2), field, rng), random_tensor((2, 2), field, rng),
          large((2, 2), field, rng), random_tensor((2, 2), field, rng)]
    refs = [ms[0]]
    for m in ms[1:]:
        refs.append(np.tensordot(refs[-1], m, ([1], [0])))
    seen = spy_routes(monkeypatch)
    out = Encoded.of(field, ms[0])
    for m, ref in zip(ms[1:], refs[1:]):
        out = out.dot(Encoded.of(field, m), ([1], [0]))
        assert_same(out.objects, ref, field)
        if len(seen) == 1:
            assert linalg.max_abs(out.ints) >= field.p      # left unreduced
    # each product past the first would need Python ints unreduced; its
    # operands are reduced mod p first and it stays in int64
    assert seen == ["int64"] * 3
