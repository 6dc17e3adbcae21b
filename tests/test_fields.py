import re
from fractions import Fraction

import pytest

from rbx.errors import CharacteristicError, InputError
from rbx.fields import (F2, F3, F5, FpElement, PrimeField, QQ,
                        field_from_name, field_to_name)


def test_fp_canonical_representatives():
    x = FpElement(7, 5)
    assert x.val == 2
    assert (-x).val == 3
    assert (x + 4).val == 1
    assert (x * x).val == 4
    assert (x / FpElement(3, 5)).val == 4  # 2 * 3^{-1} = 2*2 = 4


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F5.one / F5.zero


def test_fp_modulus_mixing_rejected():
    with pytest.raises(InputError):
        F2.one + F3.one


def test_fp_foreign_types_rejected():
    with pytest.raises(TypeError):
        F5.one + Fraction(1, 2)


def test_prime_validation():
    with pytest.raises(InputError):
        PrimeField(4)
    with pytest.raises(InputError):
        PrimeField(1)


def test_inverse_int():
    assert QQ.inverse_int(6) == Fraction(1, 6)
    assert F5.inverse_int(2) == FpElement(3, 5)
    with pytest.raises(CharacteristicError):
        F3.inverse_int(6)


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
    ("abc", "Invalid literal"),
    ("1/0", "Fraction(1, 0)"),
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
    back = F5.decode(np.array(ints).reshape(2, 2) - 10, 1)   # reduced mod p
    assert back.tolist() == arr.tolist()
    assert all(type(x.val) is int for x in back.flat)
