"""The kernel's two integer backends against each other and the oracles.

- Every operation of the pure-Python `IntTensor` against numpy on
  object arrays of the same Python ints, with entries beyond 2^63.
- `Encoded` products, sums and comparisons on the pure backend against
  the same with every product int64 holds on numpy (`PURE_WORK` = -1),
  over Q, F2, F7 and F_(2^31-1).
- The identity checkers against `tests/oracle.py` on both sides of the
  work rule: the oracle tests of test_integer_sites and
  test_witness_oracle run here with every product int64 holds on numpy
  (and only those), and with a rule that splits one identity's products
  between the backends (their own runs keep the pure default).  A spy
  sees only int64 operands reach numpy's contractions.
- The integer formatter against `field.format`, F_p reduction near
  +-(2^63 - 1) against Python's %, and the loader's shape discovery
  against numpy's.
- Index lists numpy would not wrap (out of range, or bools) and scalars
  of another field raise, at the kernel's door; tensors of two fields
  raise where they meet, in a product or a sum.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import test_cochains
import test_contract
import test_flows
import test_gerstenhaber
import test_integer_sites
import test_witness_oracle
from oracle import identity, random_tensor
from test_contract import spy_products, tensordot_spec
from rbx import linalg
from rbx.algebra import (Algebra, bimodule_check, canonical_bimodule,
                         intertwiner_check, semidirect, twisted_extension)
from rbx.cochains import zero_cochain
from rbx.errors import InputError
from rbx.fields import QQ, FpElement, PrimeField
from rbx.gerstenhaber import MultiMap, from_algebra
from rbx.instances import kx2, mult_by_x_instance
from rbx.linalg import (Encoded, IntTensor, _array, combine, einsum, embed,
                        first_difference, first_nonzero_index, max_abs,
                        to_numpy, to_pure)
from rbx.operators import OperatorInstance, is_grb
from rbx.structures import grb_morphism_check

BIG = PrimeField(2 ** 31 - 1)
FIELDS = (QQ, PrimeField(2), PrimeField(7), BIG)
MAGNITUDES = (0, 0, 1, -1, 7, -30, 2 ** 40, -2 ** 62 - 3, 2 ** 63 + 5,
              -2 ** 70, 3 ** 50)


def ints(shape, rng, density=0.6):
    """A pure tensor of entries of every magnitude, about `density` of
    them nonzero."""
    flat = [rng.choice(MAGNITUDES[2:]) if rng.random() < density else 0
            for _ in range(int(np.prod(shape)))]
    return IntTensor(shape, flat)


def same(pure, ref):
    """The pure tensor equals the numpy array: shape and Python ints."""
    ref = np.asarray(ref, dtype=object)
    assert isinstance(pure, IntTensor)
    assert pure.shape == ref.shape
    assert pure.flat == [int(x) for x in ref.flat]
    assert all(type(x) in (int, bool) for x in pure.flat)


def obj(t):
    return np.array(t.flat, dtype=object).reshape(t.shape)


def pure_einsum(spec, a, b):
    """`einsum` of IntTensors, as the integers of Q scalars."""
    return einsum(spec, Encoded(QQ, a), Encoded(QQ, b)).ints


# ---------------------------------------------------------------------------
# IntTensor against numpy


def test_views_match_numpy():
    rng = random.Random(1)
    t = ints((2, 3, 4), rng)
    ref = obj(t)
    for axes in itertools.permutations(range(3)):
        same(t.transpose(*axes), ref.transpose(*axes))
    same(t.transpose(), ref.transpose())
    for idx in (1, -1, (0, 2), (0, 2, 3), (slice(None), -1),
                (slice(1, None), slice(None, None, 2)), (..., 1),
                (..., slice(1, 3)), (0, ..., 0), (..., [3, 0, 0]), ([1, 0],),
                ([1], 0, slice(None)), (slice(None), 2)):
        same(t[idx], ref[idx])
    # a list's axis stays in its place, where numpy would move it first
    same(t[1, :, [2, 0]], ref[1][:, [2, 0]])
    same(t[0, 1:, [2, 0]], ref[0][1:, [2, 0]])
    assert t.tolist() == ref.tolist() and t.reshape(4, 6).tolist() == \
        ref.reshape(4, 6).tolist()
    assert IntTensor((2, 0), []).tolist() == [[], []]
    with pytest.raises(IndexError):
        t[2]
    # the slice gather: a long batch axis first (its lines interleaved) or
    # last, axes that run on into each other, negative steps and list
    # indices
    t = ints((7, 2, 3, 2), rng)
    ref = obj(t)
    for axes in itertools.permutations(range(4)):
        same(t.transpose(*axes), ref.transpose(*axes))
        same(t.transpose(*axes)[::-2, ..., ::-1],
             ref.transpose(*axes)[::-2, ..., ::-1])
    for idx in ((slice(None, None, -1),), (..., slice(None, None, -2)),
                (slice(5, 0, -2), 1), (slice(None, None, -3), ...,
                                       slice(None, None, -1)),
                (..., 0), (slice(2, 3),), ([6, 0, 3], ...), (..., [1, 0, 1]), ([0], ..., 1),
                (slice(None), [1, 0], slice(None, None, -1)),
                (slice(None, None, -1), 1, [2, 0]), (slice(1, 2), slice(0, 1)),
                (slice(None), 0, 0, 0), ([3, 3], 0, 0, 0), (0, 1, 2, 1),
                (..., slice(3, 3))):
        same(t[idx], ref[idx])
    same(t[2, :, [2, 0]], ref[2][:, [2, 0]])
    u = ints((5,), rng)
    for idx in ([4, 0, 0], slice(None, None, -1), slice(3, None, -2),
                slice(1, 4)):
        same(u[idx], obj(u)[idx])


@pytest.mark.parametrize("idx", (
    [5], [-3], [True, False], [0, True], np.array([False, True]),
    [np.True_, np.False_], (0, [2])), ids=repr)
def test_list_index_refuses_what_numpy_would_not_wrap(idx):
    """numpy raises on an entry outside [-n, n) and reads bools as a
    mask; IntTensor raises on both, where it wrapped them before."""
    with pytest.raises(IndexError):
        IntTensor((2, 2), [1, 2, 3, 4])[idx]


def test_arithmetic_matches_numpy():
    rng = random.Random(2)
    a, b = ints((3, 4), rng), ints((3, 4), rng)
    A, B = obj(a), obj(b)
    same(a + b, A + B)
    same(a - b, A - B)
    same(-a, -A)
    same(a * (2 ** 40 + 1), A * (2 ** 40 + 1))
    for field in FIELDS[1:]:
        same(a % field.p, A % field.p)
        same(field.reduce(a), A % field.p)
    same(a != 0, A != 0)
    assert a.any() and not IntTensor((2,), [0, 0]).any()
    assert max_abs(a) == max(abs(x) for x in A.flat) == max_abs(A)
    assert max_abs(IntTensor((0,), [])) == 0


@pytest.mark.parametrize("seed", range(4))
def test_tall_tensordots_run_columnwise(seed, monkeypatch):
    """A tensordot with more rows n than k * m runs column-wise, the rows
    innermost, at densities 0.1 and 0.9 and with k or m zero; an operand
    already in contraction order is read in place, one out of it is
    copied once, and no operand is written."""
    rng = random.Random(seed + 40)
    taken, copied = [], []
    columns, transpose = linalg._columns, IntTensor.transpose
    monkeypatch.setattr(linalg, "_columns",
                        lambda *args: taken.append(args) or columns(*args))
    monkeypatch.setattr(IntTensor, "transpose",
                        lambda t, *axes: copied.append(t) or transpose(t, *axes))
    # (shape a, shape b, axes, operands transposed)
    cases = [((9, 2), (2, 2), ([1], [0]), 0),
             ((4, 3, 2), (2, 3), ([-1], [0]), 0),
             ((2, 3, 4), (4,), ([2], [0]), 0),
             ((3, 2, 5), (3, 2), ([0], [0]), 1),
             ((2, 6, 2), (2, 2, 1), ([0, 2], [1, 0]), 2),
             ((5, 0), (0, 2), ([1], [0]), 0),
             ((7, 3), (3, 0), ([1], [0]), 0),
             ((3, 4, 0), (0, 2), ([2], [0]), 0)]
    for sa, sb, axes, transposed in cases:
        for density in (0.1, 0.9):
            a, b = ints(sa, rng, density), ints(sb, rng, density)
            before = a.flat[:], b.flat[:]
            taken.clear()
            copied.clear()
            same(pure_einsum(tensordot_spec(len(sa), len(sb), axes), a, b),
                 np.tensordot(obj(a), obj(b), axes))
            assert len(taken) == 1 and len(copied) == transposed, (sa, sb)
            assert (a.flat, b.flat) == before


def test_gather_matches_its_offsets():
    """`_gather` on random picks, entry for entry as the offsets they
    name: strides 0, equal or overlapping (no view has them, so runs that
    seem to continue each other must not merge), steps either way, one
    entry, no entry, and lists."""
    rng = random.Random(6)
    flat = list(range(1000, 1400))
    for _ in range(2000):
        picks = []
        for _ in range(rng.randrange(5)):
            stride, n = rng.choice((0, 1, 1, 2, 3, 4, 6, 12)), rng.randrange(5)
            if rng.random() < 0.2:
                ix = [rng.randrange(4) for _ in range(n)]
            else:
                step = rng.choice((1, 1, 2, -1, -2))
                start = rng.randrange(4) + (2 * n if step < 0 else 0)
                ix = range(start, start + step * n, step)
            picks.append((stride, ix))
        base = rng.randrange(10)
        want = [flat[o] for o in linalg._offsets(base, picks)]
        assert linalg._gather(flat, base, picks) == want, (base, picks)


def test_views_copy():
    """Writing into a view leaves the tensor as it was: the identity
    transpose, `t[...]` and one whole line copy too."""
    t = IntTensor((2, 3), list(range(6)))
    for view in (t.transpose(0, 1), t[...], t[:], t[1], t[:, 2],
                 t.ravel()[::-1]):
        view.flat[0] = -1
        assert t.flat == list(range(6))


@pytest.mark.parametrize("seed", range(4))
def test_batch_innermost_products_match_numpy(seed, monkeypatch):
    """A product with more rows, n for each (start_a, start_b) pair, than
    k * m loops over the index triples, the pairs (or, when they are
    fewer, the rows) innermost: batch letters on either side or both,
    and k, n or m zero."""
    rng = random.Random(seed + 20)
    taken = []
    real = linalg._columns

    def spy(a, picks_a, b, picks_b, n, k, m):
        taken.append(math.prod(len(ix) for _, ix in picks_a) * n)
        return real(a, picks_a, b, picks_b, n, k, m)

    monkeypatch.setattr(linalg, "_columns", spy)
    # (spec, shape a, shape b): the output's last two letters are the
    # rows i and the columns k of a product over j
    cases = [("xij,jk->xik", (9, 2, 2), (2, 2)),
             ("ij,xjk->xik", (2, 2), (9, 2, 2)),
             ("xij,xjk->xik", (9, 2, 2), (9, 2, 2)),
             ("xij,yjk->xyik", (5, 2, 2), (4, 2, 2)),
             ("bij,bxjk->bxik", (30, 3, 3), (30, 3, 3, 3)),
             ("yij,xjk->xyik", (3, 3, 3), (20, 3, 3)),
             ("bij,bjk->bik", (6, 2, 0), (6, 0, 3)),
             ("bij,bjk->bik", (6, 0, 2), (6, 2, 3)),
             ("bij,bjk->bik", (6, 2, 2), (6, 2, 0)),
             ("xij,jk->xik", (0, 2, 2), (2, 2)),
             ("ij,xyjk->xyik", (2, 2), (4, 0, 2, 2)),
             # more rows than pairs: every row a pair of its own
             ("xij,xjk->xik", (2, 9, 2), (2, 2, 2)),
             ("xij,yjk->xyik", (3, 7, 2), (2, 2, 3)),
             ("xij,xjk->xik", (2, 9, 2), (2, 2, 0))]
    for spec, sa, sb in cases:
        a, b = ints(sa, rng, 0.5), ints(sb, rng, 0.5)
        ref = np.einsum(spec, obj(a), obj(b))
        taken.clear()
        same(pure_einsum(spec, a, b), ref)
        rows, k, m = math.prod(ref.shape[:-1]), sa[-1], ref.shape[-1]
        assert taken == ([rows] if rows > k * m else []), spec
    # no pairs at all, taken directly (tall products with k or m zero
    # take it too: test_tall_tensordots_run_columnwise)
    assert real([1, 2, 3, 4], [(4, range(0))], [5, 6, 7, 8], [(2, range(0))],
                2, 2, 1) == []


@pytest.mark.parametrize("size", [64, 512])
def test_batched_pullback_counts_its_batch_once(size, monkeypatch):
    """The work of a batched pullback, t(m_i, m_j), at d = 2 is its batch
    times one candidate's, so a block of candidates stays on the pure
    kernel."""
    rng = random.Random(size)
    field = PrimeField(7)
    t = Encoded.of(field, random_tensor((2, 2, 2), field, rng))
    block = Encoded(field, IntTensor((size, 2, 2), [
        rng.randrange(7) for _ in range(size * 4)]))
    works = []
    real = linalg._route

    def spy(field, ints, fits, work=None):
        works.append(work)
        return real(field, ints, fits, work)

    def pullback(m):
        return einsum("...jb,...ibl->...ijl", m,
                      einsum("...ia,abl->...ibl", m, t))

    monkeypatch.setattr(linalg, "_route", spy)
    pulled = pullback(block)
    assert isinstance(pulled.ints, IntTensor)
    batched, works[:] = works[:], []
    pullback(block[:1])
    assert batched == [size * w for w in works]
    for j in (0, size - 1):
        assert pulled[j].objects.tolist() == pullback(block[j]).objects.tolist()


def test_conversions_and_index_helpers():
    rng = random.Random(3)
    small = IntTensor((2, 2), [1, -2, 0, 2 ** 62])
    assert to_numpy(small).dtype == np.int64
    assert to_numpy(small).tolist() == small.tolist()
    same(to_pure(to_numpy(small)), obj(small))
    assert to_pure(small) is small and to_numpy(to_numpy(small)).dtype == np.int64
    big = ints((2, 3), rng)
    assert max_abs(big) >= 2 ** 63
    with pytest.raises(OverflowError):          # numpy holds int64 only
        to_numpy(big)
    assert big.ravel().tolist() == obj(big).ravel().tolist() == big.flat
    for t in (big, IntTensor((2, 2), [0, 0, 0, 5]), IntTensor((2, 2), [0] * 4),
              IntTensor((2, 0), [])):
        for k in (None, 0, 1, 2):
            assert first_nonzero_index(t, k) == first_nonzero_index(obj(t), k)
            if max_abs(t) < 2 ** 63:
                assert first_nonzero_index(t, k) == \
                    first_nonzero_index(to_numpy(t), k)
    assert first_nonzero_index(IntTensor((2, 2), [0, 0, 0, 5]), 1) == (1,)
    for pos in range(24):
        assert linalg.unravel(pos, (2, 3, 4)) == \
            tuple(int(i) for i in np.unravel_index(pos, (2, 3, 4)))


def test_embed_matches_numpy():
    rng = random.Random(4)
    block, corner = ints((2, 3), rng), ints((1, 2), rng)
    places = [((slice(None, 2), slice(1, None)), block),
              ((2, slice(None, 2)), IntTensor((2,), corner.flat)),
              (([0, 2], 0), IntTensor((2,), [5, 2 ** 64]))]
    pure = embed((3, 4), places)
    ref = np.zeros((3, 4), dtype=object)
    for index, t in places:
        ref[index] = obj(t)
    same(pure, ref)
    # numpy blocks where int64 holds them: a block past int64 keeps the
    # embedding pure
    mixed = embed((3, 4), [(i, to_numpy(t) if max_abs(t) < 2 ** 63 else t)
                           for i, t in places])
    same(mixed, ref)
    small = [(i, IntTensor(t.shape, [x % 1000 for x in t.flat]))
             for i, t in places]
    ref = np.zeros((3, 4), dtype=object)
    for index, t in small:
        ref[index] = obj(t)
    on_numpy = embed((3, 4), [(i, to_numpy(t)) for i, t in small[:2]] +
                     small[2:])
    assert on_numpy.dtype == np.int64 and on_numpy.tolist() == ref.tolist()
    same(embed((2, 2), []), np.zeros((2, 2), dtype=object))


# ---------------------------------------------------------------------------
# Encoded on the two backends


def encoded(shape, field, rng, large):
    """A pure encoding of random scalars; `large` gives Q numerators past
    2^63 over a large scale, or p - 1 everywhere over F_p."""
    if not large:
        return Encoded.of(field, random_tensor(shape, field, rng))
    t = np.empty(shape, dtype=object)
    t.flat = [field.from_int(-1) if field.char else
              Fraction(rng.choice((1, -1)) * (2 ** 65 + rng.randint(0, 9)),
                       rng.choice((1, 3, 7, 11)))
              for _ in range(t.size)]
    return Encoded.of(field, t)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_encoded_operations_agree_on_both_backends(field, monkeypatch):
    rng = random.Random(field.char % 1000 + 20)
    for large in (False, True):
        a, b = (encoded((2, 3, 3), field, rng, large) for _ in range(2))
        m, t = encoded((3, 3), field, rng, large), \
            encoded((3, 3, 2), field, rng, large)

        def run():
            prod = einsum("xij,ykj->xiyk", a, b)
            mat = einsum("xij,jk->xik", a, m)
            pulled = einsum("jb,ibl->ijl", m, einsum("ia,abl->ibl", m, t))
            total = combine([(prod, 1), (prod.transpose(2, 3, 0, 1), -1)])
            diff = (mat - a).differs(None)
            return [x.objects for x in (prod, mat, pulled, total)] + [
                np.asarray(diff.tolist()),
                first_difference([(mat, a), (prod, None)], 1),
                prod.at((1, 0)), pulled.at((0, 1, 1))]

        pure = run()
        assert isinstance(einsum("xij,ykj->xiyk", a, b).ints, IntTensor)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "PURE_WORK", -1)
            # a product past int64 stays pure: Q numerators past 2^63, or
            # three-term sums of (p-1)^2 over F_(2^31-1)
            past = not linalg.fits_int64(3, *(max_abs(field.reduce(x.ints))
                                              for x in (a, b)))
            assert past == (field in (QQ, BIG)) or not large
            assert isinstance(einsum("xij,ykj->xiyk", a, b).ints,
                              IntTensor) == past
            on_numpy = run()
        for x, y in zip(pure, on_numpy):
            if isinstance(x, np.ndarray):
                assert x.shape == y.shape and x.tolist() == y.tolist()
            else:
                assert x == y


# ---------------------------------------------------------------------------
# the identities against the oracles on both sides of the work rule

def fields_of(module):
    return [(field,) for field in module.FIELDS]


# (module, test, argument tuples): the identities' oracle tests
ORACLE_TESTS = [
    (test_integer_sites, name, fields_of(test_integer_sites))
    for name in ("test_assoc_matches_oracle_and_object_path",
                 "test_bimodule_matches_oracle_and_object_path",
                 "test_operator_identities_match_oracle_and_object_path",
                 "test_axioms_match_oracle_and_object_path",
                 "test_multimap_sums_and_half_square_match_object_path",
                 "test_addexp_restriction_compare_matches_object_path")] + [
    (test_witness_oracle, name, fields_of(test_witness_oracle))
    for name in ("test_operator_checkers_match_oracle",
                 "test_assoc_check_matches_oracle",
                 "test_bimodule_check_matches_oracle",
                 "test_dendriform_and_ns_checkers_match_oracle")] + [
    (test_cochains, name, [(kx2(QQ),)])
    for name in ("test_arity_one_matches_displayed_formula",
                 "test_arity_two_matches_displayed_formula",
                 "test_is_cocycle_witness")] + [
    (module, name, [()]) for module, name in (
        (test_cochains, "test_twisted_extension_assoc_iff_cocycle"),
        (test_flows, "test_addexp_equals_trb_verdict"),
        (test_flows, "test_addexp_iff_residual_zero"),
        (test_flows, "test_closed_forms_match_bracket_route"),
        (test_gerstenhaber, "test_circ_matches_oracle_on_arity_two_pairs"),
        (test_gerstenhaber, "test_bracket_matches_oracle_mixed_arities"))]
CASES = [(module, name, args) for module, name, arglists in ORACLE_TESTS
         for args in arglists]


def run_test(module, name, args, monkeypatch):
    """Run another module's test, passing it `monkeypatch` if it takes it."""
    test = getattr(module, name)
    if "monkeypatch" in test.__code__.co_varnames[:test.__code__.co_argcount]:
        args += (monkeypatch,)
    test(*args)


@pytest.mark.parametrize("work", [-1, 16], ids=["numpy", "split"])
@pytest.mark.parametrize(
    "module, name, args", CASES,
    ids=[f"{m.__name__}.{n}" + (f"[{a[0].name}]" if hasattr(a[0], "name")
                                else "") if a else f"{m.__name__}.{n}"
         for m, n, a in CASES])
def test_identities_match_oracles_on_both_sides(module, name, args, work,
                                                monkeypatch):
    monkeypatch.setattr(linalg, "PURE_WORK", work)
    seen = []
    real = linalg._route

    def route(field, ints, fits, work=None):
        out = real(field, ints, fits, work)
        if work is not None:            # a product, not a sum
            seen.append((isinstance(out[0], IntTensor),
                         fits(*(max_abs(field.reduce(x)) for x in ints))))
        return out

    monkeypatch.setattr(linalg, "_route", route)
    run_test(module, name, args, monkeypatch)
    if work < 0:
        # numpy for every product int64 holds (mod p over F_p), pure for
        # every other one
        assert seen and all(pure != fits for pure, fits in seen)


# the F_(2^31-1) oracle tests and the fallbacks past int64 (Q numerators
# near 2^62, all-(p-1) tensors over F_(2^31-1))
INT64_CASES = [(test_integer_sites, name, (BIG,)) for name in (
    "test_assoc_matches_oracle_and_object_path",
    "test_bimodule_matches_oracle_and_object_path",
    "test_operator_identities_match_oracle_and_object_path",
    "test_axioms_match_oracle_and_object_path",
    "test_multimap_sums_and_half_square_match_object_path",
    "test_addexp_restriction_compare_matches_object_path")] + [
    (test_integer_sites, name, ()) for name in (
        "test_assoc_and_bimodule_fall_back_to_python_ints",
        "test_f_2_31_minus_1_assoc_is_int64_at_d_2_and_pure_at_d_3",
        "test_operator_identities_fall_back_to_python_ints",
        "test_axioms_fall_back_to_python_ints",
        "test_multimap_sums_and_half_square_fall_back_to_python_ints",
        "test_addexp_falls_back_to_python_ints")] + [
    (test_contract, name, args) for name, args in (
        ("test_contract_matches_object_tensordot_at_every_slot", (BIG,)),
        ("test_matmul_matches_object_matmul", (QQ,)),
        ("test_matmul_matches_object_matmul", (BIG,)),
        ("test_views_match_object_numpy", (QQ,)),
        ("test_views_match_object_numpy", (BIG,)),
        ("test_q_numerators_near_2_62_fall_back_to_python_ints", ()),
        ("test_f_2_31_minus_1_switches_to_python_ints_past_d_2", ()),
        ("test_matmul_falls_back_to_python_ints", ()),
        ("test_deferred_reduction_across_a_chain_of_contractions", ()))]


@pytest.mark.parametrize(
    "module, name, args", INT64_CASES,
    ids=[f"{m.__name__}.{n}" + (f"[{a[0].name}]" if a else "")
         for m, n, a in INT64_CASES])
def test_numpy_contracts_only_int64(module, name, args, monkeypatch):
    """With every product int64 holds on numpy, the kernel's numpy
    products (np.matmul) see int64 operands and nothing else (some tests
    see none: every product there is past int64).  The spy is the
    kernel's own product step, so the tests' own object-dtype
    references pass by it, and their own spies wrap it."""
    monkeypatch.setattr(linalg, "PURE_WORK", -1)
    seen = []
    # the spy asserts int64 operands of every numpy product
    spy_products(monkeypatch, lambda route, *_: seen.append(route))
    run_test(module, name, args, monkeypatch)
    assert seen


# ---------------------------------------------------------------------------
# formatting from the integers, F_p reduction, shape discovery


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_format_int_matches_format_of_the_scalar(field):
    numerators = (0, 1, -1, 6, -6, 12, -35, 2 ** 64 + 12, -(3 ** 41),
                  field.char or 5, 7 * (field.char or 5) - 3)
    for scale in ((1, 2, 6, 12, 35, 2 ** 70) if not field.char else (1,)):
        for n in numerators:
            want = field.format(field.scalar(n, scale))
            got = field.format_int(n, scale)
            assert got == want and type(got) is type(want)
            if not field.char:
                assert want == QQ.format(Fraction(n, scale))
            else:
                assert want == FpElement(n, field.p).val


@pytest.mark.parametrize("field", (PrimeField(2), PrimeField(7), BIG),
                         ids=lambda f: f.name)
def test_int64_reduction_near_the_limits_matches_python(field):
    p, top = field.p, 2 ** 63 - 1
    # offsets 0..40 from each limit and around p and 2p from it
    offsets = sorted({*range(41), *(m * p + d for m in (1, 2)
                                    for d in range(-2, 3))})
    near = [top - k for k in offsets] + [-top + k for k in offsets] + \
        [-top - 1, 0, 1, -1, p, -p, 2 * p - 1]
    for values in (near, near[:len(offsets)], near[len(offsets):]):
        arr = np.array(values, dtype=np.int64)
        got = field.reduce(arr)
        assert got.dtype == np.int64
        assert got.tolist() == [v % p for v in values]
        assert arr.tolist() == values            # the input is left alone
    block = np.arange(-2 ** 15, 2 ** 15, dtype=np.int64).reshape(2, -1) * 31
    assert field.reduce(block).tolist() == \
        [[v % p for v in row] for row in block.tolist()]


RAW = [[[1, 2], [3]], [[1, 2], 3], [[[1], [2]], [[3], [4, 5]]], [], [[], []],
       [[], 1], 5, "ab", {"a": 1}, [{"a": 1}, {"b": 2}], [[1, 2], [3, 4]],
       [[[1, 2]], [[3, 4]]], [None], [[1, [2]], [3, [4]]],
       [[[[1]], [[2]]], [[[3]], [4]]], [[], [[]]], [[[], []], [[], []]],
       [[1, "x"], [True, 2.5]]]


def test_shape_discovery_matches_numpy():
    deep = 1
    for _ in range(70):
        deep = [deep]
    for raw in RAW + [deep]:
        shape, flat = _array(raw)
        ref = np.asarray(raw, dtype=object)
        assert shape == ref.shape
        assert len(flat) == ref.size
        if ref.ndim <= 32:              # numpy's .flat stops at 32 axes
            assert all(x == y for x, y in zip(flat, ref.flat))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_encoded_of_keeps_the_shape_of_an_array(field):
    """An object array keeps its shape, empty axes included, and encodes
    as the nested lists of its scalars do."""
    for shape in [(0, 3), (3, 0), (2, 0, 4), (), (2, 3)]:
        arr = np.empty(shape, dtype=object)
        arr[...] = field.zero
        enc = Encoded.of(field, arr)
        assert enc.shape == shape and enc.ints.flat == [0] * arr.size
        assert enc.objects.shape == shape
    arr = random_tensor((2, 3), field, random.Random(3))
    from_lists = Encoded.of(field, arr.tolist())
    from_array = Encoded.of(field, arr)
    assert from_lists.shape == from_array.shape == (2, 3)
    assert (from_lists.ints.flat, from_lists.scale) == \
        (from_array.ints.flat, from_array.scale)
    assert from_array.objects.tolist() == arr.tolist()


F5, F7 = PrimeField(5), PrimeField(7)


@pytest.mark.parametrize("build", [
    lambda: OperatorInstance(kx2(F5), canonical_bimodule(kx2(F5)),
                             [[F7.zero, F7.from_int(6)], [F7.zero, F7.zero]]),
    lambda: MultiMap(F5, [[[1]]]),
    lambda: Algebra(QQ, [[[F5.one]]]),
    lambda: Encoded.of(QQ, [1, True]),
    lambda: Encoded.of(QQ, [Fraction(1, 2), 0.5]),
    lambda: Encoded.of(F5, Encoded.of(F7, [F7.one])),
], ids=["F7-scalars-over-F5", "int-over-F5", "F5-scalar-over-Q",
        "bool-over-Q", "float-over-Q", "F7-Encoded-over-F5"])
def test_encoded_of_refuses_scalars_of_another_field(build):
    """A scalar keeps its value at the library's door or is refused: an
    F7 6 is no F5 1."""
    with pytest.raises(InputError, match="must be F5 scalars|must be Q scalars"):
        build()


def _mixed(build):
    """build(A, M) on kx2 over Q and the canonical bimodule of kx2 over F5."""
    return lambda: build(kx2(QQ), canonical_bimodule(kx2(F5)))


def _intertwiner(P, Q):
    return intertwiner_check(identity(2, P.field), P, Q)


ZERO_F5 = MultiMap(F5, [[[F5.zero] * 2] * 2] * 2)
FIVE_MU = from_algebra(kx2(QQ)).scale(QQ.from_int(5))


@pytest.mark.parametrize("build", [
    lambda: _intertwiner(ZERO_F5, FIVE_MU),
    lambda: _intertwiner(FIVE_MU, ZERO_F5),
    lambda: grb_morphism_check(identity(2, QQ), identity(2, QQ),
        mult_by_x_instance(QQ), mult_by_x_instance(F5)),
    lambda: from_algebra(kx2(QQ)) + from_algebra(kx2(F5)),
    lambda: from_algebra(kx2(QQ)) - from_algebra(kx2(F5)),
    _mixed(semidirect),
    _mixed(lambda A, M: twisted_extension(A, M, zero_cochain(A, M, 2))),
    _mixed(bimodule_check),
    _mixed(lambda A, M: is_grb(OperatorInstance(
        A, M, mult_by_x_instance(QQ).op))),
], ids=["intertwiner-F5-Q", "intertwiner-Q-F5", "grb-morphism",
        "multimap-sum", "multimap-difference", "semidirect",
        "twisted-extension", "bimodule-check", "is-grb"])
def test_tensors_of_two_fields_are_refused_where_they_meet(build):
    """No verdict or structure is computed from tensors of Q and F5: the
    kernel refuses them in its products and sums."""
    with pytest.raises(InputError, match="different fields"):
        build()
