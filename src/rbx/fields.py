"""Exact scalar domains: arbitrary-precision rationals and small prime fields.

Every computation in rbx happens over one of these two domains.  Equality
is decidable and bit-exact, so every identity check in the library is a
zero-tolerance comparison.  Rational scalars are ``fractions.Fraction``;
prime-field scalars are :class:`FpElement` with canonical representatives
in ``[0, p)``.

Both fields also `encode` a flat list of their scalars as a list of
integers and a scale, and turn an integer over a scale back into a
scalar (`scalar`; `format_int` writes its canonical JSON form without
building one): the conversions between scalars and integers, for the
exact integer kernel (`linalg.Encoded`) that every identity check runs
on.  F_p encodes canonical representatives with scale 1; the kernel's
results may be any representatives, which `reduce` brings to canonical
ones where the kernel needs them, on IntTensors and int64 numpy arrays
alike.  Q encodes the numerators over the common denominator of the
entries and leaves integer results as they are.  `divide` is the one
division elimination needs, on a row of Python ints: exact floor
division over Q, multiplication by the inverse mod p over F_p.
`Encoded.objects` decodes a whole tensor with one `scalar` call per
distinct value.

A schema literal is read straight to integers: `literal` gives the
field's pair for n/d (`ratio`: lowest terms over Q, (n * d^-1 mod p, 1)
over F_p), and `encode_pairs` encodes a list of pairs as `encode` does
their scalars, so a loaded tensor and a catalog instance are built
without a scalar.  This module holds the one spelling of a number rbx
reads, `_NUMBER`, ASCII `[+-]?[0-9]+(/[0-9]+)?`: `literal` reads it for
a document scalar, `read_int` reads its integers for the command line,
and `quote` names the text of every refusal of either.
`fractions` is imported where a `Fraction` is built (`scalar` over Q),
not when this module loads.

The two fields share one body, `Field`: `from_int`, `zero` and `one`
build scalars through `scalar`; `parse` is `scalar` of `literal`;
`encode`, `format` and `literal` read a scalar as the field's `pair`,
so each field writes its canonical form once; fields are equal when
their characteristics are.  Each field keeps only what differs.
"""

from __future__ import annotations

import math
import re

from .errors import InputError
from .linalg import IntTensor

# the one spelling of a number: an optional sign and ASCII digits, then
# '/' and ASCII digits in a fraction
_NUMBER = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def read_int(text, refusal):
    """The int `text` spells in `_NUMBER` without '/' (int() alone also
    reads other scripts' digits, underscores and spaces); else, or past
    int's digit limit, an InputError: `refusal` and the text's `quote`."""
    match = _NUMBER.fullmatch(text)
    try:
        if match and not match[2]:
            return int(match[1])
    except ValueError:  # past int's digit limit
        pass
    raise InputError(refusal + quote(text))


def quote(text):
    """How a refusal names `text`: a number, signed or not, past int's
    digit limit by its digit count, and a fraction with such a part by
    its length, neither echoed; any other text by its repr."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    parts = digits.split("/")
    if len(parts) <= 2 and all(part.isdecimal() for part in parts):
        try:
            int(max(parts, key=len))    # the limit is a count of digits
        except ValueError:
            return (f"a fraction of {len(text)} characters" if "/" in digits
                    else f"one of {len(digits)} digits")
    return repr(text)


def _fraction():
    """`fractions.Fraction`, imported where one is built."""
    from fractions import Fraction
    return Fraction


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


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """The members Q and F_p share, written once over each field's own
    `char`, `name`, `scalar`, `pair` and `format_int`."""

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return self.scalar(n, 1)

    def parse(self, value):
        """The scalar of a schema literal (`literal`)."""
        return self.scalar(*self.literal(value))

    def literal(self, value):
        """The `ratio` pair of a schema scalar: an int, or a string 'num'
        or 'num/den' in `_NUMBER`, reduced before it is read, so over F_p
        "-14/21" is -2/3 and the reduced den must be nonzero mod p."""
        if isinstance(value, int) and not isinstance(value, bool):
            return self.ratio(value, 1)
        if not isinstance(value, str):
            raise InputError(f"expected scalar, got {value!r}")
        match = _NUMBER.fullmatch(value)
        reason = "expected an integer or num/den in ASCII digits"
        if match:
            try:
                n, d = int(match[1]), int(match[2] or 1)
            except ValueError:
                reason = "exceeds the integer digit limit"
            else:
                g = math.gcd(n, d)
                if d and (self.char == 0 or d // g % self.char):
                    return self.ratio(n // g, d // g)
                reason = f"division by zero in {self.name}"
        kind = "rational" if self.char == 0 else self.name
        raise InputError(f"bad {kind} scalar {quote(value)}: {reason}")

    def encode(self, scalars):
        """(ints, scale): `encode_pairs` of the scalars' `pair`s."""
        return self.encode_pairs([self.pair(x) for x in scalars])

    def encode_pairs(self, pairs):
        """(ints, scale) of a list of `ratio` pairs, as `encode` gives
        their scalars': the numerators over the lcm of the denominators."""
        den = math.lcm(*{d for _, d in pairs})
        return [n * (den // d) for n, d in pairs], den

    def format(self, x):
        """Canonical JSON form: `format_int` of the scalar's pair."""
        return self.format_int(*self.pair(x))

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(self.char)


class RationalField(Field):
    """The field Q with Fraction scalars."""

    char = 0
    name = "Q"

    def is_scalar(self, x):
        return type(x) is int or type(x) is _fraction()

    def ratio(self, n, d):
        """n/d (d > 0) in lowest terms."""
        g = math.gcd(n, d)
        return n // g, d // g

    def pair(self, x):
        """(numerator, denominator) of a rational."""
        return x.numerator, x.denominator

    def scalar(self, n, scale):
        return _fraction()(n, scale)

    def format_int(self, n, scale):
        """n / scale as an int when integral, else 'num/den'."""
        n, d = self.ratio(n, scale)
        return n if d == 1 else f"{n}/{d}"

    def reduce(self, arr):
        """Integer results need no reduction over Q."""
        return arr

    def divide(self, row, d):
        """row / d for a list of ints and an int d that divides every
        entry: exact //."""
        return [x // d for x in row]

    def __repr__(self):
        return "RationalField()"


class PrimeField(Field):
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

    def is_scalar(self, x):
        return type(x) is FpElement and x.p == self.p

    def ratio(self, n, d):
        """n/d as (n * d^-1 mod p, 1); ValueError when p divides d."""
        return n * pow(d, -1, self.p) % self.p, 1

    def pair(self, x):
        """(canonical representative, 1) of an F_p scalar."""
        return x.val, 1

    def scalar(self, n, scale):
        return FpElement(n, self.p)

    def format_int(self, n, scale):
        """The canonical representative of n (scale is 1)."""
        return n % self.p

    def reduce(self, arr):
        """Canonical representatives of an integer tensor, an IntTensor or
        an int64 numpy one.  On int64, a - (a // p) * p, in place, is
        exact and several times faster than numpy's %, except for entries
        within p of -2^63, where (a // p) * p would leave int64."""
        p = self.p
        if isinstance(arr, IntTensor) or \
                (arr.size and arr.min() < -2 ** 63 + p):
            return arr % p
        q = arr // p
        q *= -p
        q += arr
        return q

    def divide(self, row, d):
        """row / d mod p for a list of ints, by the inverse of d mod p (d
        is nonzero mod p), as canonical representatives."""
        inverse, p = pow(d, -1, self.p), self.p
        return [x * inverse % p for x in row]

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


def field_to_name(field):
    if field.char == 0:
        return "Q"
    return {"Fp": field.char}
