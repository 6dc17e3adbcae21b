"""Concrete instances at desk scale: small algebras, the canonical
operator examples on them, and the truncation of polynomial integration,
the paper's first infinite-dimensional example.  `BUILDERS` builds each
emittable row of `catalog.TABLE` as an `operators.OperatorInstance`, the
truncation as one that keeps its inverse too (`TruncatedInstance`).  The
second example, integration on the Weyl algebra, has no finite
structure-constant form; the test suite checks it with its own exact
engine (`tests/weyl.py`).  Structure constants, actions, operators and
twists are built directly in the integer encoding (`linalg.Encoded`), so
the catalog builds and emits its small instances without numpy; the maps
the builders take are matrices (see `operators`).
"""

from __future__ import annotations

from .algebra import Algebra, Bimodule, canonical_bimodule, intertwining
from .cochains import Cochain, coboundary
from .errors import CapacityError, CharacteristicError, InputError
from .fields import QQ
from .linalg import (Encoded, IntTensor, _shaped, decoded, einsum, embed, eye,
                     invert, rank)
from .operators import OperatorInstance, reynolds_as_twisted


# ---------------------------------------------------------------------------
# small algebras

def _ones(field, shape, indices):
    """The Encoded tensor of `shape` with a 1 at each of `indices`."""
    one = IntTensor((), [1])
    return Encoded(field, embed(shape, [(index, one) for index in indices]))


def kx2(field) -> Algebra:
    """k[x]/(x^2) with basis 1, x."""
    c = _ones(field, (2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    return Algebra(field, c)


def null_algebra(field, dim) -> Algebra:
    """All products zero."""
    return Algebra(field, _ones(field, (dim, dim, dim), []))


def mult_by_x_instance(field) -> OperatorInstance:
    """The classical Rota-Baxter operator a |-> x a on k[x]/(x^2)."""
    A = kx2(field)
    return OperatorInstance(A, canonical_bimodule(A),
                            _ones(field, (2, 2), [(0, 1)]))


# ---------------------------------------------------------------------------
# twisted instances

def tensor_square(algebra: Algebra) -> OperatorInstance:
    """The multiplication A (x) A -> A as a twisted operator with twist
    phi(a, b) = -a (x) b; A (x) A is unchecked: A is associative."""
    d, c, field = algebra.dim, algebra._c, algebra.field
    one = Encoded(field, eye(d))
    # basis e_u (x) e_v at u * d + v: a.(u (x) v) = au (x) v and
    # (u (x) v).a = u (x) va
    left = einsum("aux,vy->auvxy", c, one)
    right = einsum("ux,vay->uvaxy", one, c)
    module = Bimodule(algebra, left.reshape(d, d * d, d * d),
                      right.reshape(d * d, d, d * d), check=False)
    phi = -Encoded(field, eye(d * d)).reshape(d, d, d * d)
    return OperatorInstance(algebra, module, c.reshape(d * d, d),
                            Cochain(algebra, module, phi))


def unit_section(algebra: Algebra, module: Bimodule, f, e) -> OperatorInstance:
    """An A-linear surjection f: M -> A with a section point f(e) = 1
    becomes a twisted operator with twist phi(a, b) = -a.e.b."""
    unit = algebra._unit()
    if unit is None:
        raise InputError("unit_section needs a unital algebra")
    field = algebra.field
    F = _shaped(field, f, (module.dim, algebra.dim),
                "f must map the module onto the algebra")
    e = _shaped(field, e, (module.dim,),
                f"e must be a module vector of length {module.dim}")
    if einsum("x,xl->l", e, F).differs(unit).any():
        raise InputError("f(e) is not the unit")
    if rank(F) != algebra.dim:
        raise InputError("f is not surjective")
    # A-linear: f intertwines the actions on M with A's own product
    bad = intertwining(Encoded(field, eye(algebra.dim)), F, module,
                       canonical_bimodule(algebra))
    if bad is not None:
        side = ("left", "right")[bad[2]]
        raise InputError(f"f is not {side} A-linear at basis pair ({bad[0]},{bad[1]})")
    # phi[i, j] = -(e_i . e) . e_j
    phi = -einsum("iy,yjl->ijl", einsum("ixy,x->iy", module._left, e),
                  module._right)
    return OperatorInstance(algebra, module, F, Cochain(algebra, module, phi))


def invertible_cochain_instance(algebra: Algebra, module: Bimodule,
                                omega) -> OperatorInstance:
    """An invertible 1-cochain w: A -> M (the matrix `omega`) yields the
    twisted operator p = w^{-1}: M -> A with twist -dw."""
    w = _shaped(algebra.field, omega, (algebra.dim, module.dim),
                "the 1-cochain must map A to M")
    phi = -coboundary(Cochain(algebra, module, w))._tensor
    return OperatorInstance(algebra, module, invert(w),
                            Cochain(algebra, module, phi))


def swap_instance(field) -> OperatorInstance:
    """The swap 1 <-> x on k[x]/(x^2) as an invertible 1-cochain."""
    A = kx2(field)
    swap = _ones(field, (2, 2), [(0, 1), (1, 0)])
    return invertible_cochain_instance(A, canonical_bimodule(A), swap)


def reynolds_identity_instance(field) -> OperatorInstance:
    """R = id on k[x]/(x^2) viewed as a twisted operator (twist -mu)."""
    A = kx2(field)
    return reynolds_as_twisted(A, Encoded(field, eye(2)))


# ---------------------------------------------------------------------------
# truncated polynomial integration

class TruncatedInstance(OperatorInstance):
    """A finite truncation of an infinite-dimensional example: the
    operator instance with the operator's inverse `omega`, kept encoded
    and read as scalars, read-only.  The polynomial truncation is an
    honest quotient, so every identity check on it is exact."""

    omega = decoded("_omega")

    def __init__(self, algebra, module, op, omega):
        OperatorInstance.__init__(self, algebra, module, op)
        self._omega = Encoded.of(algebra.field, omega)


# The largest degree truncated_polynomial builds (N^3 entries per tensor):
# `rbx catalog emit truncated-poly` took 1.3 s and 175 MB at N = 40, and
# 7.8 s and 744 MB at N = 60, on a shared 2-CPU x86_64 VM.
DEGREE_CAP = 40


def truncated_polynomial(N, field=QQ) -> TruncatedInstance:
    """A = span{x, ..., x^N} (product truncated past degree N) acting on
    M = span{1, ..., x^{N-1}}; the operator is termwise integration
    x^i |-> x^{i+1}/(i+1) and omega is d/dx, its inverse.  M is unchecked:
    A acts on it by k[x]'s associative product modulo x^N."""
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
    A = Algebra(field, c)
    left = _ones(field, (N, N, N), [(a, m, a + 1 + m) for a in range(N)
                                    for m in range(N - 1 - a)])
    M = Bimodule(A, left, left.transpose(1, 0, 2), check=False)
    # diagonal: pi has the entries 1/(i+1), omega the entries i+1
    ints, scale = field.encode_pairs([field.ratio(1, i + 1) for i in range(N)])
    pi, om = eye(N), eye(N)
    pi.flat[::N + 1] = ints
    om.flat[::N + 1] = range(1, N + 1)
    return TruncatedInstance(A, M, Encoded(field, pi, scale),
                             Encoded(field, om))


# ---------------------------------------------------------------------------
# catalog registry (consumed by the CLI)

# emittable name -> builder, called with a degree (None: the default)
# when its `catalog.TABLE` row says it takes one
BUILDERS = {
    "mult-by-x": lambda: mult_by_x_instance(QQ),
    "tensor-square": lambda: tensor_square(kx2(QQ)),
    "unit-section": lambda: unit_section_tensor_example(QQ),
    "swap-cochain": lambda: swap_instance(QQ),
    "reynolds-id": lambda: reynolds_identity_instance(QQ),
    "truncated-poly": lambda n: truncated_polynomial(4 if n is None else n),
}


def unit_section_tensor_example(field) -> OperatorInstance:
    """The worked unit-section instance: M = A(x)A, f = mu, e = 1(x)1."""
    ts = tensor_square(kx2(field))
    # coordinates of 1(x)1 in the (u,v)-ordered basis
    e = Encoded(field, eye(ts.module.dim)[0])
    return unit_section(ts.algebra, ts.module, ts._op, e)
