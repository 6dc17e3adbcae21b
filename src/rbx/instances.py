"""Concrete instances at desk scale: small algebras, the canonical
operator examples on them, and truncations of the two infinite-dimensional
examples (polynomial integration and the Weyl algebra) with explicit safe
verification windows.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Bimodule, canonical_bimodule
from .cochains import Cochain, coboundary
from .errors import CapacityError, CharacteristicError, InputError
from .fields import QQ
from .linalg import Encoded, first_nonzero_index, identity, invert, rank, zeros
from .operators import LinearMap, OperatorInstance, reynolds_as_twisted
from .weyl import WeylPoly


# ---------------------------------------------------------------------------
# small algebras

def kx2(field) -> Algebra:
    """k[x]/(x^2) with basis 1, x."""
    c = zeros((2, 2, 2), field)
    one = field.one
    c[0, 0, 0] = one
    c[0, 1, 1] = one
    c[1, 0, 1] = one
    return Algebra(field, c, labels=["1", "x"])


def null_algebra(field, dim) -> Algebra:
    """All products zero."""
    return Algebra(field, zeros((dim, dim, dim), field))


def ground_field_algebra(field) -> Algebra:
    """The field itself as a one-dimensional unital algebra."""
    c = zeros((1, 1, 1), field)
    c[0, 0, 0] = field.one
    return Algebra(field, c, labels=["1"])


def mult_by_x_matrix(field):
    """Multiplication by x on k[x]/(x^2): 1 |-> x, x |-> 0."""
    mat = zeros((2, 2), field)
    mat[0, 1] = field.one
    return mat


def mult_by_x_instance(field) -> OperatorInstance:
    """The classical Rota-Baxter operator a |-> x a on k[x]/(x^2)."""
    A = kx2(field)
    return OperatorInstance(A, canonical_bimodule(A),
                            LinearMap(mult_by_x_matrix(field), "M", "A"))


# ---------------------------------------------------------------------------
# twisted instances

def tensor_square(algebra: Algebra) -> OperatorInstance:
    """The multiplication A (x) A -> A as a twisted operator with twist
    phi(a, b) = -a (x) b."""
    d, c = algebra.dim, algebra.c
    one = identity(d, algebra.field)
    # basis e_u (x) e_v at u * d + v: a.(u (x) v) = au (x) v and
    # (u (x) v).a = u (x) va
    left = np.multiply.outer(c, one).transpose(0, 1, 3, 2, 4).reshape(d, d * d, d * d)
    right = np.multiply.outer(one, c).transpose(0, 2, 3, 1, 4).reshape(d * d, d, d * d)
    labels = [f"{p}(x){q}" for p in algebra.labels for q in algebra.labels]
    module = Bimodule(algebra, left, right, labels=labels)
    mu = c.reshape(d * d, d).copy()
    phi = -identity(d * d, algebra.field).reshape(d, d, d * d)
    return OperatorInstance(algebra, module, LinearMap(mu, "A(x)A", "A"),
                            Cochain(algebra, module, phi))


def unit_section(algebra: Algebra, module: Bimodule, f: LinearMap, e) -> OperatorInstance:
    """An A-linear surjection f: M -> A with a section point f(e) = 1
    becomes a twisted operator with twist phi(a, b) = -a.e.b."""
    unit = algebra.unit()
    if unit is None:
        raise InputError("unit_section needs a unital algebra")
    if f.matrix.shape != (module.dim, algebra.dim):
        raise InputError("f must map the module onto the algebra")
    field = algebra.field
    F, e = Encoded.of(field, f.matrix), Encoded.of(field, e)
    if e.dot(F, ([0], [0])).differs(Encoded.of(field, unit)).any():
        raise InputError("f(e) is not the unit")
    if rank(F) != algebra.dim:
        raise InputError("f is not surjective")
    L, R, c = module._left, module._right, algebra._c
    # [i, j, side, l] for a = e_i and m = m_j: f(a.m) vs a f(m), then
    # f(m.a) vs f(m) a
    sides = [(L.dot(F, ([2], [0])), c.dot(F, ([1], [1])).transpose(0, 2, 1)),
             (R.dot(F, ([2], [0])).transpose(1, 0, 2),
              F.dot(c, ([1], [0])).transpose(1, 0, 2))]
    bad = first_nonzero_index(
        np.stack([a.differs(b) for a, b in sides], axis=2), 3)
    if bad is not None:
        side = ("left", "right")[bad[2]]
        raise InputError(f"f is not {side} A-linear at basis pair ({bad[0]},{bad[1]})")
    # phi[i, j] = -(e_i . e) . e_j
    phi = -L.dot(e, ([1], [0])).dot(R, ([1], [0]))
    return OperatorInstance(algebra, module, f, Cochain(algebra, module, phi))


def invertible_cochain_instance(algebra: Algebra, module: Bimodule,
                                omega: LinearMap) -> OperatorInstance:
    """An invertible 1-cochain w: A -> M yields the twisted operator
    p = w^{-1}: M -> A with twist -dw."""
    if omega.matrix.shape != (algebra.dim, module.dim):
        raise InputError("the 1-cochain must map A to M")
    pi = invert(Encoded.of(algebra.field, omega.matrix))
    phi = -coboundary(Cochain(algebra, module, omega.matrix))._tensor
    return OperatorInstance(algebra, module, LinearMap(pi.objects, "M", "A"),
                            Cochain(algebra, module, phi))


def swap_instance(field) -> OperatorInstance:
    """The swap 1 <-> x on k[x]/(x^2) as an invertible 1-cochain."""
    A = kx2(field)
    M = canonical_bimodule(A)
    swap = zeros((2, 2), field)
    swap[0, 1] = field.one
    swap[1, 0] = field.one
    return invertible_cochain_instance(A, M, LinearMap(swap, "A", "M"))


def reynolds_identity_instance(field) -> OperatorInstance:
    """R = id on k[x]/(x^2) viewed as a twisted operator (twist -mu)."""
    A = kx2(field)
    return reynolds_as_twisted(A, LinearMap(identity(2, field), "A", "A"))


# ---------------------------------------------------------------------------
# truncated polynomial integration

class TruncatedInstance:
    """A finite truncation of an infinite-dimensional example.

    `window` lists the module basis pairs on which identity checks involve
    no truncated-away terms; for the polynomial instance the truncation is
    an honest quotient, so every pair is safe.
    """

    def __init__(self, name, degree, algebra, module, op, omega, window=None):
        self.name = name
        self.degree = degree
        self.algebra = algebra
        self.module = module
        self.op = op
        self.omega = omega
        self.window = [] if window is None else window

    def instance(self) -> OperatorInstance:
        return OperatorInstance(self.algebra, self.module, self.op)


def truncated_polynomial(N, field=QQ) -> TruncatedInstance:
    """A = span{x, ..., x^N} (product truncated past degree N) acting on
    M = span{1, ..., x^{N-1}}; the operator is termwise integration
    x^i |-> x^{i+1}/(i+1) and omega is d/dx, its inverse."""
    if N < 3:
        raise InputError("truncated_polynomial needs degree N >= 3")
    if field.char and field.char <= N:
        raise CharacteristicError(
            f"integration denominators 2..{N} collide with characteristic "
            f"{field.char}")
    # algebra basis x^1..x^N, module basis x^0..x^{N-1}
    c = zeros((N, N, N), field)
    for i in range(N):
        for j in range(N):
            if i + j + 2 <= N:
                c[i, j, i + j + 1] = field.one
    A = Algebra(field, c, labels=[f"x^{i+1}" for i in range(N)])
    left = zeros((N, N, N), field)
    right = zeros((N, N, N), field)
    for a in range(N):
        for m in range(N):
            if a + 1 + m <= N - 1:
                left[a, m, a + 1 + m] = field.one
                right[m, a, a + 1 + m] = field.one
    M = Bimodule(A, left, right, labels=[f"x^{i}" for i in range(N)])
    pi = zeros((N, N), field)
    om = zeros((N, N), field)
    for i in range(N):
        pi[i, i] = field.inverse_int(i + 1)
        om[i, i] = field.from_int(i + 1)
    window = [(i, j) for i in range(N) for j in range(N)]
    return TruncatedInstance(
        "truncated-poly", N, A, M,
        LinearMap(pi, "M", "A"), LinearMap(om, "A", "M"), window)


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


# ---------------------------------------------------------------------------
# catalog registry (consumed by the CLI)

class CatalogEntry:
    def __init__(self, description, build, takes_degree=False,
                 emittable=True):
        self.description = description
        self.build = build  # () or (degree) -> OperatorInstance | TruncatedInstance
        self.takes_degree = takes_degree
        self.emittable = emittable


def _truncated_poly_entry(degree):
    return truncated_polynomial(degree if degree is not None else 4)


CATALOG = {
    "mult-by-x": CatalogEntry(
        "multiplication by x on k[x]/(x^2): a classical Rota-Baxter operator",
        lambda: mult_by_x_instance(QQ)),
    "tensor-square": CatalogEntry(
        "the multiplication A(x)A -> A of k[x]/(x^2) as a twisted operator "
        "with twist -a(x)b",
        lambda: tensor_square(kx2(QQ))),
    "unit-section": CatalogEntry(
        "the A-linear surjection mu: A(x)A -> A with section 1(x)1, twist "
        "-a.e.b, on k[x]/(x^2)",
        lambda: unit_section_tensor_example(QQ)),
    "swap-cochain": CatalogEntry(
        "inverse of the invertible 1-cochain swapping 1 and x on k[x]/(x^2)",
        lambda: swap_instance(QQ)),
    "reynolds-id": CatalogEntry(
        "the identity Reynolds operator on k[x]/(x^2) as a twisted operator",
        lambda: reynolds_identity_instance(QQ)),
    "truncated-poly": CatalogEntry(
        "termwise integration on truncated polynomials (degree flag, >= 3)",
        _truncated_poly_entry, takes_degree=True),
    "weyl": CatalogEntry(
        "integration on the Weyl algebra W<x,y>; verified on a safe window "
        "by the exact normal-ordering engine (degree flag, >= 4)",
        lambda degree=None: truncated_weyl(degree if degree is not None else 8),
        takes_degree=True, emittable=False),
}


def unit_section_tensor_example(field) -> OperatorInstance:
    """The worked unit-section instance: M = A(x)A, f = mu, e = 1(x)1."""
    ts = tensor_square(kx2(field))
    e = zeros(ts.module.dim, field)
    e[0] = field.one  # coordinates of 1(x)1 in the (u,v)-ordered basis
    return unit_section(ts.algebra, ts.module, ts.op, e)


def catalog_trb_instances(field=QQ):
    """The twisted catalog: mu-as-twisted, invertible-cochain, unit-section,
    Reynolds-as-twisted."""
    return {
        "tensor-square": tensor_square(kx2(field)),
        "swap-cochain": swap_instance(field),
        "unit-section": unit_section_tensor_example(field),
        "reynolds-id": reynolds_identity_instance(field),
    }
