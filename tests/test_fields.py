import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle import in_spelling, named

from rbx.errors import InputError
from rbx.fields import (F2, F3, F5, FpElement, PrimeField, QQ,
                        field_from_name, field_to_name)
from rbx.linalg import Encoded, IntTensor


def test_fp_canonical_representatives():
    x = FpElement(7, 5)
    assert x.val == 2
    assert (-x).val == 3
    assert (x + 4).val == 1
    assert (x * x).val == 4
    assert (x / FpElement(3, 5)).val == 4  # 2 * 3^{-1} = 2*2 = 4
    assert 5 - FpElement(3, 7) == FpElement(2, 7)
    assert +x is x
    assert str(FpElement(10, 7)) == "3"


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F5.one / F5.zero


def test_fp_modulus_mixing_rejected():
    with pytest.raises(InputError):
        F2.one + F3.one


def test_fp_foreign_types_rejected():
    with pytest.raises(TypeError):
        F5.one + Fraction(1, 2)
    x, y = FpElement(1, 7), Fraction(1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(TypeError):
                op(a, b)
    assert x != "1"


def test_prime_validation():
    with pytest.raises(InputError):
        PrimeField(4)
    with pytest.raises(InputError):
        PrimeField(1)


def test_parse_format_roundtrip_q():
    for raw in [3, -2, "5/3", "-7/2", "4"]:
        x = QQ.parse(raw)
        again = QQ.parse(QQ.format(x))
        assert again == x
    assert QQ.format(Fraction(4, 2)) == 2
    assert QQ.format(Fraction(-1, 3)) == "-1/3"


def test_parse_fp():
    assert F5.parse(7) == FpElement(2, 5)
    assert F5.parse("1/2") == FpElement(3, 5)
    with pytest.raises(InputError):
        QQ.parse(None)
    with pytest.raises(InputError):
        QQ.parse(True)


def test_field_names():
    assert field_from_name("Q") is not None and field_from_name("Q").char == 0
    assert field_from_name({"Fp": 3}).char == 3
    assert field_to_name(QQ) == "Q"
    assert field_to_name(F2) == {"Fp": 2}
    with pytest.raises(InputError):
        field_from_name("R")


def test_modulus_bound():
    with pytest.raises(InputError, match="2\\^31"):
        PrimeField(10 ** 18 + 3)
    with pytest.raises(InputError):
        PrimeField(2 ** 31)
    assert PrimeField(2 ** 31 - 1).char == 2 ** 31 - 1


def test_fp_equal_to_int_hashes_alike():
    assert FpElement(1, 2) == 1 and hash(FpElement(1, 2)) == hash(1)
    assert len({FpElement(1, 2), 1}) == 1
    assert {FpElement(3, 5): "x"}[3] == "x"
    # ints compare by canonical value only
    assert FpElement(1, 2) != 3 and FpElement(4, 5) != -1
    assert len({FpElement(1, 2), FpElement(1, 3)}) == 2


@pytest.mark.parametrize("raw, reason", [
    ("1/2", "division by zero in F2"),     # denominator 0 mod p
    ("abc", "expected an integer or num/den in ASCII digits"),
    ("1/0", "division by zero in F2"),
])
def test_parse_fp_bad_scalar_is_input_error(raw, reason):
    with pytest.raises(InputError,
                       match=re.escape(f"bad F2 scalar '{raw}': {reason}")):
        F2.parse(raw)
    assert F3.parse("1/2") == FpElement(2, 3)


def test_fp_int_tensor_round_trip():
    import numpy as np

    arr = np.array([[F5.from_int(3), F5.zero], [F5.one, F5.from_int(4)]],
                   dtype=object)
    ints, scale = F5.encode(list(arr.flat))
    assert ints == [3, 0, 1, 4] and all(type(n) is int for n in ints)
    assert scale == 1
    for raw in (np.array(ints).reshape(2, 2) - 10,          # reduced mod p
                IntTensor((2, 2), [n + 5 * 2 ** 70 for n in ints])):
        back = Encoded(F5, raw).objects
        assert back.tolist() == arr.tolist()
        assert all(type(x.val) is int for x in back.flat)


@pytest.mark.parametrize("raw", [
    [7, -3, 0, 12, 2, 5, -5, 2 ** 70],
    [2 ** 62, -2 ** 62, 3, -2, 8, 0, 13, 5]])
def test_fp_objects_of_unreduced_integers_are_canonical_and_shared(raw):
    """`Encoded.objects` over F_p on unreduced integers, pure or int64:
    canonical entries, and one shared scalar per canonical value."""
    import numpy as np

    forms = [IntTensor((2, 4), raw)]
    if max(map(abs, raw)) < 2 ** 63:
        forms.append(np.array(raw, dtype=np.int64).reshape(2, 4))
    for ints in forms:
        objects = Encoded(F5, ints).objects
        assert objects.shape == (2, 4)
        assert [x.val for x in objects.flat] == [n % 5 for n in raw]
        assert all(type(x) is FpElement and type(x.val) is int
                   for x in objects.flat)
        by_value = {}
        for x in objects.flat:
            assert by_value.setdefault(x.val, x) is x
        assert len({id(x) for x in objects.flat}) == len({n % 5 for n in raw})


FIELDS = [QQ, F2, PrimeField(7), PrimeField(2 ** 31 - 1)]
FIELD_IDS = ["Q", "F2", "F7", "F2147483647"]


def _literal(field, raw):
    """The canonical literal of a parsed scalar, computed by hand: the
    reduced 'n/d' (or n) over Q, n / d mod p over F_p."""
    frac = Fraction(raw)
    if field.char == 0:
        return frac.numerator if frac.denominator == 1 else str(frac)
    p = field.char
    return frac.numerator * pow(frac.denominator, -1, p) % p


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("raw", [0, 3, 12, -1, -5, 2 ** 40, "4", "3/5",
                                 "-3/5", "6/9", "-14/21", "-9/3"])
def test_parse_is_scalar_of_its_encoding_and_formats_canonically(field, raw):
    """parse, scalar, encode, format and format_int agree on one literal,
    over Q and over small and large primes."""
    x = field.parse(raw)
    assert field.is_scalar(x)
    (n,), scale = field.encode([x])
    assert field.scalar(n, scale) == x
    assert field.format(x) == _literal(field, raw) == field.format_int(n, scale)
    assert type(field.format(x)) is type(_literal(field, raw))
    assert field.parse(field.format(x)) == x


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_pairs_encode_as_their_scalars(field):
    """`ratio` then `encode_pairs` gives the integers and scale that
    `encode` gives the scalars n/d."""
    pairs = [(n, d) for n in (0, 1, -3, 6, 2 ** 70) for d in (1, 3, 6, 9, 11)
             if field.char == 0 or d % field.char]
    assert field.encode_pairs([field.ratio(n, d) for n, d in pairs]) == \
        field.encode([field.from_int(n) / d for n, d in pairs])
    assert field.encode_pairs([]) == field.encode([]) == ([], 1)
    if field.char:
        with pytest.raises(ValueError):
            field.ratio(1, field.char)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_zero_one_and_from_int(field):
    assert field.zero == field.from_int(0) and not field.zero
    assert field.one == field.from_int(1) and field.one
    assert field.is_scalar(field.zero) and field.is_scalar(field.one)
    assert field.format(field.zero) == 0 and field.format(field.one) == 1
    for n in (-3, 2, 10 ** 12):
        x = field.from_int(n)
        assert field.is_scalar(x) and x == field.parse(n)
        assert field.format(x) == (n if field.char == 0 else n % field.char)
    assert field.one + field.one == field.from_int(2)
    assert field.zero - field.one == field.from_int(-1)


def test_fields_equal_and_hash_by_characteristic():
    built = [QQ, PrimeField(2), PrimeField(7), PrimeField(2 ** 31 - 1)]
    again = [type(QQ)(), PrimeField(2), PrimeField(7), PrimeField(2 ** 31 - 1)]
    for a, b in zip(built, again):
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b
    assert F2 == PrimeField(2) and {F2: "x"}[PrimeField(2)] == "x"
    assert len(set(built + again)) == 4
    for i, a in enumerate(built):
        for b in built[i + 1:]:
            assert a != b and b != a
    assert QQ != 0 and F2 != 2 and QQ != "Q" and F2 != {"Fp": 2}


@pytest.mark.parametrize("field, raw, message", [
    (QQ, True, "expected scalar, got True"),
    (QQ, 1.5, "expected scalar, got 1.5"),
    (QQ, None, "expected scalar, got None"),
    (QQ, "x", "bad rational scalar 'x': expected an integer or num/den in "
              "ASCII digits"),
    (QQ, "1/0", "bad rational scalar '1/0': division by zero in Q"),
    (PrimeField(7), True, "expected scalar, got True"),
    (PrimeField(7), 1.5, "expected scalar, got 1.5"),
    (PrimeField(7), [1], "expected scalar, got [1]"),
    (PrimeField(7), "x",
     "bad F7 scalar 'x': expected an integer or num/den in ASCII digits"),
    (PrimeField(7), "1/0", "bad F7 scalar '1/0': division by zero in F7"),
    (F2, "1/2", "bad F2 scalar '1/2': division by zero in F2"),
    (PrimeField(2 ** 31 - 1), False, "expected scalar, got False"),
    (PrimeField(2 ** 31 - 1), "1/0",
     "bad F2147483647 scalar '1/0': division by zero in F2147483647"),
])
def test_parse_error_texts(field, raw, message):
    with pytest.raises(InputError) as info:
        field.parse(raw)
    assert str(info.value) == message


# scalar strings near the one spelling [+-]?[0-9]+(/[0-9]+)?: pieces of
# it and of what int() or Fraction() also read (exponents, decimals,
# spaces, underscores, other scripts' digits), a digit run past int's
# limit, and fractions whose denominator p may divide before or after
# they are reduced
PIECES = ["0", "1", "3", "7", "14", "21", "007", "+", "-", "/", "/0", "e3",
          "E", ".", ".5", " ", "\t", "\n", "_", "\u0661", "\uff17",
          "\u0967", "\u2212", "1" * 4301]
NEAR_NUMBERS = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=5).map("".join),
    st.builds(lambda sign, n, d, k: f"{sign}{n * k}/{d * k}",
              st.sampled_from(["", "+", "-"]), st.integers(0, 10 ** 6),
              st.integers(0, 30), st.sampled_from([1, 2, 3, 7, 2 ** 31 - 1])))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(text=NEAR_NUMBERS)
def test_literal_reads_exactly_the_one_spelling(field, text):
    """`literal` accepts exactly the spelling with a nonzero denominator
    that p does not divide once reduced, at `Fraction`'s value; a refusal
    names the text once, a digit run past int's limit by its count, or a
    fraction with such a part by its length (`oracle.named`)."""
    try:
        frac = Fraction(text) if in_spelling(text) else None
    except (ValueError, ZeroDivisionError):  # too many digits, or n/0
        frac = None
    if frac is not None and field.char and frac.denominator % field.char == 0:
        frac = None
    try:
        got = field.parse(text)
    except InputError as exc:
        assert frac is None, text
        kind = "rational" if field.char == 0 else field.name
        message = str(exc)
        assert message.startswith(f"bad {kind} scalar ")
        name = named(text)
        assert message.startswith(f"bad {kind} scalar {name}: ")
        assert message.count(repr(text)) == (name == repr(text))
        return
    assert frac is not None, text
    assert got == field.from_int(frac.numerator) / frac.denominator
