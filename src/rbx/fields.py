"""Exact scalar domains: arbitrary-precision rationals and small prime fields.

Every computation in rbx happens over one of these two domains.  Equality
is decidable and bit-exact, so every identity check in the library is a
zero-tolerance comparison.  Rational scalars are ``fractions.Fraction``;
prime-field scalars are :class:`FpElement` with canonical representatives
in ``[0, p)``.

Both fields also `encode` a flat list of their scalars as a list of
integers and a scale, and `decode` an integer tensor over a scale back
to scalars (`scalar` decodes one integer, `format_int` writes its
canonical JSON form without building a scalar): the conversions between
scalars and integers, for the exact integer kernel (`linalg.Encoded`)
that every identity check runs on.  F_p encodes canonical
representatives with scale 1; the kernel's results may be any
representatives, which `reduce` brings to canonical ones where the
kernel needs them and decoding reduces too.  Q encodes the numerators
over the common denominator of the entries and leaves integer results
as they are.  `divide` is the one division elimination needs, on a row
of Python ints: exact floor division over Q, multiplication by the
inverse mod p over F_p.  Decoding builds one scalar per distinct value, which
equal entries (most often the zeros) share.  Only `decode`, `field_of`
and the reduction of numpy tensors import numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CharacteristicError, InputError
from .linalg import IntTensor, _np


class FpElement:
    """An element of F_p, canonical representative in [0, p).

    Arithmetic never mixes moduli or leaks into other scalar domains;
    ``0 + x`` (plain int zero) is allowed so that ``sum`` and numpy
    reductions work.
    """

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise InputError(f"mixing F{self.p} and F{other.p} scalars")
            return other.val
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F{self.p}")
        return FpElement(self.val * pow(v, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other
        return NotImplemented

    def __hash__(self):
        # equal to an int exactly when its canonical value is, so hash alike
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"FpElement({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


def _from_values(arr, make):
    """Object tensor holding make(v) at each entry v of the integer tensor
    `arr`, with one call, and one shared scalar, per distinct value."""
    np = _np()
    values, index = np.unique(arr, return_inverse=True)
    scalars = np.empty(len(values), dtype=object)
    scalars[:] = [make(int(v)) for v in values]
    return scalars[np.reshape(index, -1)].reshape(np.shape(arr))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field Q with Fraction scalars."""

    char = 0
    name = "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inverse_int(self, n):
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1, n)

    def parse(self, value):
        """Parse a schema scalar: an int, or a string 'num' / 'num/den'."""
        if isinstance(value, bool):
            raise InputError(f"expected scalar, got {value!r}")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational scalar {value!r}: {exc}") from exc
        raise InputError(f"expected scalar, got {value!r}")

    def format(self, x):
        """Canonical JSON form: int when integral, else 'num/den'."""
        if x.denominator == 1:
            return int(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def encode(self, scalars):
        """(numerators, den): a list of rationals as Python ints over
        den, the lcm of their denominators."""
        den = math.lcm(*{x.denominator for x in scalars})
        return [x.numerator * (den // x.denominator) for x in scalars], den

    def decode(self, arr, scale):
        """The rational tensor arr / scale of a numpy integer tensor."""
        return _from_values(arr, lambda n: Fraction(n, scale))

    def scalar(self, n, scale):
        return Fraction(n, scale)

    def format_int(self, n, scale):
        """`format` of n / scale."""
        g = math.gcd(n, scale)
        return n // g if g == scale else f"{n // g}/{scale // g}"

    def reduce(self, arr):
        """Integer results need no reduction over Q."""
        return arr

    def divide(self, row, d):
        """row / d for a list of ints and an int d that divides every
        entry: exact //."""
        return [x // d for x in row]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field F_p for a prime p below 2^31."""

    def __init__(self, p):
        # the bound keeps trial division under 46,341 steps
        if isinstance(p, int) and p >= 2 ** 31:
            raise InputError(f"F_p needs a prime modulus below 2^31, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise InputError(f"F_p needs a prime modulus, got {p!r}")
        self.p = p
        self.char = p
        self.name = f"F{p}"

    @property
    def zero(self):
        return FpElement(0, self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def inverse_int(self, n):
        if n % self.p == 0:
            raise CharacteristicError(
                f"1/{n} does not exist in characteristic {self.p}")
        return FpElement(pow(n % self.p, -1, self.p), self.p)

    def parse(self, value):
        if isinstance(value, bool):
            raise InputError(f"expected scalar, got {value!r}")
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, str):
            try:
                # allows "3", and "1/2" when 2 is invertible mod p
                frac = Fraction(value)
                return FpElement(frac.numerator, self.p) / frac.denominator
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(
                    f"bad {self.name} scalar {value!r}: {exc}") from exc
        raise InputError(f"expected scalar, got {value!r}")

    def format(self, x):
        return x.val

    def encode(self, scalars):
        """(representatives, 1): the canonical representatives of a list
        of F_p scalars, over scale 1."""
        return [x.val for x in scalars], 1

    def scalar(self, n, scale):
        return FpElement(n, self.p)

    def format_int(self, n, scale):
        """`format` of the scalar of n (scale is 1)."""
        return n % self.p

    def reduce(self, arr):
        """Canonical representatives of an integer tensor: int64 for a
        numpy one.  On int64, a - (a // p) * p, in place, is exact and
        several times faster than numpy's %, except for entries within
        p of -2^63, where (a // p) * p would leave int64."""
        p = self.p
        if isinstance(arr, IntTensor):
            return arr % p
        np = _np()
        if arr.dtype != np.int64 or not arr.ndim or \
                (arr.size and arr.min() < -2 ** 63 + p):
            return (arr % p).astype(np.int64, copy=False)
        q = arr // p
        q *= p
        return np.subtract(arr, q, out=q)

    def divide(self, row, d):
        """row / d mod p for a list of ints, by the inverse of d mod p (d
        is nonzero mod p), as canonical representatives."""
        inverse, p = pow(d, -1, self.p), self.p
        return [x * inverse % p for x in row]

    def decode(self, arr, scale):
        """The F_p tensor of an integer tensor, reduced mod p; `scale` is
        always 1."""
        return _from_values(_np().asarray(arr) % self.p,
                            lambda v: FpElement(v, self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def field_from_name(name):
    """'Q' or {'Fp': p} as used in the shared JSON schema."""
    if name == "Q":
        return QQ
    if isinstance(name, dict) and set(name) == {"Fp"}:
        return PrimeField(name["Fp"])
    raise InputError(f"unknown field name {name!r}")


def field_of(arr):
    """The field whose scalars fill the tensor `arr`: Q for Fraction
    entries (and for an empty tensor), F_p for FpElement entries mod p.
    Entries of any other type, or of two fields, raise InputError."""
    kinds = {(type(x), getattr(x, "p", None))
             for x in _np().asarray(arr, dtype=object).flat}
    if kinds <= {(Fraction, None)}:
        return QQ
    if len(kinds) == 1 and next(iter(kinds))[0] is FpElement:
        return PrimeField(next(iter(kinds))[1])
    raise InputError("tensor entries must be scalars of one field")


def field_to_name(field):
    if field.char == 0:
        return "Q"
    return {"Fp": field.char}
