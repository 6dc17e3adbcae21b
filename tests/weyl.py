"""Exact normal-ordering arithmetic in the Weyl algebra W<x, y> with
[x, y] = xy - yx = 1.

Polynomials are stored on the normal basis x^i y^j with Fraction
coefficients.  Reordering uses

    y^j x^k = sum_{s=0}^{min(j,k)} (-1)^s s! C(j,s) C(k,s) x^{k-s} y^{j-s}

so products of normal monomials stay normal-ordered:

    (x^i y^j)(x^k y^l)
        = sum_s (-1)^s s! C(j,s) C(k,s) x^{i+k-s} y^{j+l-s}.

This engine never truncates; it is deliberately independent of the
structure-constant machinery and serves as its cross-check on the
commutative (y-free) fragment.  Like `oracle`, it calls no rbx
arithmetic: of rbx it uses only the error classes.

`TruncatedWeyl` is the paper's second infinite-dimensional example,
integration on W<x, y> with ad_x as its dual, truncated at a total
degree for the tests' verification windows.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from rbx.errors import CapacityError, InputError


class WeylPoly:
    """Normal-ordered polynomial: immutable dict {(i, j): Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, i, j, coeff=1):
        return cls({(i, j): Fraction(coeff)})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls.monomial(0, 0)

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return WeylPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeylPoly({m: -c for m, c in self.terms.items()})

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return WeylPoly({m: c * scalar for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (i, j), a in self.terms.items():
            for (k, l), b in other.terms.items():
                ab = a * b
                for s in range(min(j, k) + 1):
                    coeff = ab * ((-1) ** s * factorial(s) * comb(j, s) * comb(k, s))
                    mono = (i + k - s, j + l - s)
                    out[mono] = out.get(mono, Fraction(0)) + coeff
        return WeylPoly(out)

    def commutator(self, other):
        return self * other - other * self

    def integrate_y(self):
        """x^i y^j |-> x^i y^{j+1} / (j+1)."""
        return WeylPoly({(i, j + 1): c / (j + 1) for (i, j), c in self.terms.items()})

    def ad_x(self):
        """[x, .]: x^i y^j |-> j x^i y^{j-1}."""
        return WeylPoly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((i + j for i, j in self.terms), default=-1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, WeylPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            powers = (f"x^{i}" if i > 1 else "x" if i == 1 else "") + \
                     (f"y^{j}" if j > 1 else "y" if j == 1 else "")
            bits.append(f"{c}*{powers}" if powers else f"{c}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# truncated Weyl algebra (via the exact normal-ordering engine)

class TruncatedWeyl:
    """W<x, y> truncated at total degree N for cataloging purposes.

    The finite basis is {x^i y^j : i+j <= N}; identity checks are
    evaluated in the exact normal-ordering engine (no truncation), so a
    verdict on a pair is a genuine statement about the full Weyl algebra.
    `safe_window()` lists the pairs whose verification also stays inside
    this instance's own basis.  Requests for out-of-basis monomials raise
    a CapacityError naming the overflow.
    """

    def __init__(self, N):
        if N < 4:
            raise InputError("truncated_weyl needs degree N >= 4")
        self.degree = N
        self.basis = [(i, j) for i in range(N + 1) for j in range(N + 1 - i)]

    def monomial(self, i, j) -> WeylPoly:
        if i + j > self.degree:
            raise CapacityError(
                f"monomial x^{i} y^{j} exceeds truncation degree {self.degree}")
        return WeylPoly.monomial(i, j)

    def require_in_basis(self, poly: WeylPoly, context: str):
        for (i, j) in sorted(poly.terms):
            if i + j > self.degree:
                raise CapacityError(
                    f"{context} overflows the degree-{self.degree} basis at "
                    f"monomial x^{i} y^{j}")
        return poly

    def instance_integral(self, i, j) -> WeylPoly:
        """Integration as a partial map on the instance basis."""
        return self.require_in_basis(self.monomial(i, j).integrate_y(),
                                     f"integral of x^{i} y^{j}")

    def safe_window(self):
        """Pairs whose Rota-Baxter verification monomials all fit the basis."""
        return [(a, b) for a in self.basis for b in self.basis
                if (a[0] + a[1]) + (b[0] + b[1]) + 2 <= self.degree]

    # ---- exact identity checks (full Weyl algebra, no truncation) ----

    @staticmethod
    def rb_identity_holds(a: WeylPoly, b: WeylPoly) -> bool:
        """int(a) int(b) == int( int(a) b + a int(b) )."""
        ia, ib = a.integrate_y(), b.integrate_y()
        return ia * ib == (ia * b + a * ib).integrate_y()

    @staticmethod
    def commutator_recovers(a: WeylPoly) -> bool:
        """[x, int(a) dy] == a."""
        return a.integrate_y().ad_x() == a

    @staticmethod
    def times(a: WeylPoly, b: WeylPoly) -> WeylPoly:
        """Induced product on M: a x b = int(a) b + a int(b)."""
        return a.integrate_y() * b + a * b.integrate_y()

    @staticmethod
    def act_m_on_a(m: WeylPoly, a: WeylPoly) -> WeylPoly:
        """m ._p a = int(m) a - int(m a)."""
        return m.integrate_y() * a - (m * a).integrate_y()

    @staticmethod
    def act_a_on_m(a: WeylPoly, m: WeylPoly) -> WeylPoly:
        """a ._p m = a int(m) - int(a m)."""
        return a * m.integrate_y() - (a * m).integrate_y()

    @classmethod
    def dual_grb_identity_holds(cls, a: WeylPoly, b: WeylPoly) -> bool:
        """ad_x as an operator into the induced algebra:
        ad(a) x ad(b) == ad( ad(a)._p b + a ._p ad(b) )."""
        da, db = a.ad_x(), b.ad_x()
        lhs = cls.times(da, db)
        rhs = (cls.act_m_on_a(da, b) + cls.act_a_on_m(a, db)).ad_x()
        return lhs == rhs

    @staticmethod
    def nijenhuis_identity_holds(a: WeylPoly, b: WeylPoly) -> bool:
        """N = int o ad_x satisfies the associative Nijenhuis identity."""

        def nmap(p):
            return p.ad_x().integrate_y()

        na, nb = nmap(a), nmap(b)
        return na * nb == nmap(na * b + a * nb) - nmap(nmap(a * b))


def truncated_weyl(N) -> TruncatedWeyl:
    return TruncatedWeyl(N)
