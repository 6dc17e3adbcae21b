"""Concrete instances at desk scale: small algebras, the canonical
operator examples on them, and truncations of the two infinite-dimensional
examples (polynomial integration and the Weyl algebra) with explicit safe
verification windows.  Structure constants, actions, operators and twists
are built directly in the integer encoding (`linalg.Encoded`), so the
catalog builds and emits its small instances without numpy.
"""

from __future__ import annotations

from .algebra import Algebra, Bimodule, canonical_bimodule
from .cochains import Cochain, coboundary
from .errors import CapacityError, CharacteristicError, InputError
from .fields import QQ
from .linalg import (Encoded, IntTensor, embed, eye, first_difference,
                     invert, rank)
from .operators import LinearMap, OperatorInstance, reynolds_as_twisted
from .weyl import WeylPoly


# ---------------------------------------------------------------------------
# small algebras

def _ones(field, shape, indices):
    """The Encoded tensor of `shape` with a 1 at each of `indices`."""
    one = IntTensor((), [1])
    return Encoded(field, embed(shape, [(index, one) for index in indices]))


def kx2(field) -> Algebra:
    """k[x]/(x^2) with basis 1, x."""
    c = _ones(field, (2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    return Algebra(field, c, labels=["1", "x"])


def null_algebra(field, dim) -> Algebra:
    """All products zero."""
    return Algebra(field, _ones(field, (dim, dim, dim), []))


def ground_field_algebra(field) -> Algebra:
    """The field itself as a one-dimensional unital algebra."""
    return Algebra(field, _ones(field, (1, 1, 1), [(0, 0, 0)]), labels=["1"])


def mult_by_x_matrix(field):
    """Multiplication by x on k[x]/(x^2): 1 |-> x, x |-> 0."""
    return mult_by_x_instance(field).op.matrix


def mult_by_x_instance(field) -> OperatorInstance:
    """The classical Rota-Baxter operator a |-> x a on k[x]/(x^2)."""
    A = kx2(field)
    return OperatorInstance(A, canonical_bimodule(A), LinearMap(
        _ones(field, (2, 2), [(0, 1)]), "M", "A"))


# ---------------------------------------------------------------------------
# twisted instances

def tensor_square(algebra: Algebra) -> OperatorInstance:
    """The multiplication A (x) A -> A as a twisted operator with twist
    phi(a, b) = -a (x) b."""
    d, c, field = algebra.dim, algebra._c, algebra.field
    one = Encoded(field, eye(d))
    # basis e_u (x) e_v at u * d + v: a.(u (x) v) = au (x) v and
    # (u (x) v).a = u (x) va
    left = c.dot(one, ([], [])).transpose(0, 1, 3, 2, 4)
    right = one.dot(c, ([], [])).transpose(0, 2, 3, 1, 4)
    labels = [f"{p}(x){q}" for p in algebra.labels for q in algebra.labels]
    module = Bimodule(algebra, left.reshape(d, d * d, d * d),
                      right.reshape(d * d, d, d * d), labels=labels)
    phi = -Encoded(field, eye(d * d)).reshape(d, d, d * d)
    return OperatorInstance(algebra, module,
                            LinearMap(c.reshape(d * d, d), "A(x)A", "A"),
                            Cochain(algebra, module, phi))


def unit_section(algebra: Algebra, module: Bimodule, f: LinearMap, e) -> OperatorInstance:
    """An A-linear surjection f: M -> A with a section point f(e) = 1
    becomes a twisted operator with twist phi(a, b) = -a.e.b."""
    unit = algebra._unit()
    if unit is None:
        raise InputError("unit_section needs a unital algebra")
    if f.shape != (module.dim, algebra.dim):
        raise InputError("f must map the module onto the algebra")
    field = algebra.field
    F, e = f.encoded(field), Encoded.of(field, e)
    if e.dot(F, ([0], [0])).differs(unit).any():
        raise InputError("f(e) is not the unit")
    if rank(F) != algebra.dim:
        raise InputError("f is not surjective")
    L, R, c = module._left, module._right, algebra._c
    # [i, j, side, l] for a = e_i and m = m_j: f(a.m) vs a f(m), then
    # f(m.a) vs f(m) a
    sides = [(L.dot(F, ([2], [0])), c.dot(F, ([1], [1])).transpose(0, 2, 1)),
             (R.dot(F, ([2], [0])).transpose(1, 0, 2),
              F.dot(c, ([1], [0])).transpose(1, 0, 2))]
    bad = first_difference(sides, 2)
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
    if omega.shape != (algebra.dim, module.dim):
        raise InputError("the 1-cochain must map A to M")
    w = omega.encoded(algebra.field)
    phi = -coboundary(Cochain(algebra, module, w))._tensor
    return OperatorInstance(algebra, module, LinearMap(invert(w), "M", "A"),
                            Cochain(algebra, module, phi))


def swap_instance(field) -> OperatorInstance:
    """The swap 1 <-> x on k[x]/(x^2) as an invertible 1-cochain."""
    A = kx2(field)
    swap = _ones(field, (2, 2), [(0, 1), (1, 0)])
    return invertible_cochain_instance(A, canonical_bimodule(A),
                                       LinearMap(swap, "A", "M"))


def reynolds_identity_instance(field) -> OperatorInstance:
    """R = id on k[x]/(x^2) viewed as a twisted operator (twist -mu)."""
    A = kx2(field)
    return reynolds_as_twisted(A, LinearMap(Encoded(field, eye(2)), "A", "A"))


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


# The largest degree truncated_polynomial builds (N^3 entries per tensor):
# `rbx catalog emit truncated-poly` took 1.3 s and 175 MB at N = 40, and
# 7.8 s and 744 MB at N = 60, on a shared 2-CPU x86_64 VM.
DEGREE_CAP = 40


def truncated_polynomial(N, field=QQ) -> TruncatedInstance:
    """A = span{x, ..., x^N} (product truncated past degree N) acting on
    M = span{1, ..., x^{N-1}}; the operator is termwise integration
    x^i |-> x^{i+1}/(i+1) and omega is d/dx, its inverse."""
    if N < 3:
        raise InputError("truncated_polynomial needs degree N >= 3")
    if N > DEGREE_CAP:
        raise CapacityError(
            f"truncated_polynomial degree {N} exceeds the cap {DEGREE_CAP}")
    if field.char and field.char <= N:
        raise CharacteristicError(
            f"integration denominators 2..{N} collide with characteristic "
            f"{field.char}")
    # algebra basis x^1..x^N, module basis x^0..x^{N-1}
    c = _ones(field, (N, N, N), [(i, j, i + j + 1) for i in range(N)
                                 for j in range(N - 1 - i)])
    A = Algebra(field, c, labels=[f"x^{i+1}" for i in range(N)])
    left = _ones(field, (N, N, N), [(a, m, a + 1 + m) for a in range(N)
                                    for m in range(N - 1 - a)])
    M = Bimodule(A, left, left.transpose(1, 0, 2),
                 labels=[f"x^{i}" for i in range(N)])
    # diagonal: pi has the entries 1/(i+1), omega the entries i+1
    ints, scale = field.encode([field.inverse_int(i + 1) for i in range(N)])
    pi, om = eye(N), eye(N)
    pi.flat[::N + 1] = ints
    om.flat[::N + 1] = range(1, N + 1)
    window = [(i, j) for i in range(N) for j in range(N)]
    return TruncatedInstance(
        "truncated-poly", N, A, M,
        LinearMap(Encoded(field, pi, scale), "M", "A"),
        LinearMap(Encoded(field, om), "A", "M"), window)


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

# name -> builder, called with a degree (None: the default) when its
# `catalog.TABLE` row says it takes one
BUILDERS = {
    "mult-by-x": lambda: mult_by_x_instance(QQ),
    "tensor-square": lambda: tensor_square(kx2(QQ)),
    "unit-section": lambda: unit_section_tensor_example(QQ),
    "swap-cochain": lambda: swap_instance(QQ),
    "reynolds-id": lambda: reynolds_identity_instance(QQ),
    "truncated-poly": lambda n: truncated_polynomial(4 if n is None else n),
    "weyl": lambda n: truncated_weyl(8 if n is None else n),
}


def unit_section_tensor_example(field) -> OperatorInstance:
    """The worked unit-section instance: M = A(x)A, f = mu, e = 1(x)1."""
    ts = tensor_square(kx2(field))
    # coordinates of 1(x)1 in the (u,v)-ordered basis
    e = Encoded(field, eye(ts.module.dim)[0])
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
