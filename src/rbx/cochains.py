"""Hochschild cochain complex C^n(A, M): coboundary and cocycle tests.

A cochain of arity n is a multilinear map A^n -> M stored as a tensor of
shape (dA,)*n + (dM,).  The coboundary is the standard alternating-sum
formula

    (d f)(a_1, ..., a_{n+1}) = a_1 . f(a_2, ..., a_{n+1})
        + sum_{i=1}^{n} (-1)^i f(..., a_i a_{i+1}, ...)
        + (-1)^{n+1} f(a_1, ..., a_n) . a_{n+1}

which at arity 1 gives a.f(b) - f(ab) + f(a).b and at arity 2 gives
a.f(b,c) - f(ab,c) + f(a,bc) - f(a,b).c.  Cochains are kept in their
field's integer encoding (`linalg.Encoded`), and each term of the
coboundary is one `linalg.einsum` of it, its spec naming the inputs
a_1..a_{n+1} in order.
"""

from __future__ import annotations

from .algebra import Algebra, Bimodule, Verdict
from .errors import CapacityError, InputError
from .linalg import ARITY_CAP, Encoded, combine, decoded, einsum


class Cochain:
    """Element of C^n(A, M), n >= 1."""

    tensor = decoded("_tensor")

    def __init__(self, algebra: Algebra, module: Bimodule, tensor):
        tensor = Encoded.of(algebra.field, tensor)
        dA, dM = algebra.dim, module.dim
        shape = tensor.shape
        if len(shape) < 2 or shape[-1] != dM or any(s != dA for s in shape[:-1]):
            raise InputError(
                f"cochain tensor shape {shape} does not match "
                f"C^n(A={dA}, M={dM})")
        self.algebra = algebra
        self.module = module
        self._tensor = tensor
        self.arity = len(shape) - 1

    def is_zero_map(self):
        return not self._tensor.differs(None).any()

    def __repr__(self):
        return f"Cochain(arity={self.arity}, A={self.algebra.dim}, M={self.module.dim})"


def coboundary(cochain: Cochain) -> Cochain:
    """Hochschild coboundary C^n -> C^{n+1}."""
    n = cochain.arity
    if n + 1 > ARITY_CAP:
        raise CapacityError(f"coboundary of arity {n} exceeds the arity cap {ARITY_CAP}")
    A, M = cochain.algebra, cochain.module
    f, a = cochain._tensor, "abcd"[:n + 1]      # a_1..a_{n+1}; x summed
    # a_1 . f(a_2, ..., a_{n+1}), (-1)^i f(..., a_i a_{i+1}, ...) and
    # (-1)^{n+1} f(a_1, ..., a_n) . a_{n+1}
    terms = [(einsum(f"{a[1:]}x,{a[0]}xm->{a}m", f, M._left), 1)]
    terms += [(einsum(f"{a[i - 1:i + 1]}x,{a[:i - 1]}x{a[i + 1:]}m->{a}m",
                      A._c, f), (-1) ** i) for i in range(1, n + 1)]
    terms.append((einsum(f"{a[:n]}x,x{a[n]}m->{a}m", f, M._right),
                  (-1) ** (n + 1)))
    return Cochain(A, M, combine(terms))


def is_cocycle(cochain: Cochain) -> Verdict:
    """True iff the coboundary vanishes; witness is the first nonzero
    coefficient index of d(cochain)."""
    d = coboundary(cochain)._tensor
    return Verdict.compare(d, None, len(d.shape),
                           detail="coboundary does not vanish")
