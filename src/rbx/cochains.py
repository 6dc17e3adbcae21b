"""Hochschild cochain complex C^n(A, M): coboundary and cocycle tests.

A cochain of arity n is a multilinear map A^n -> M stored as a tensor of
shape (dA,)*n + (dM,).  The coboundary is the standard alternating-sum
formula

    (d f)(a_1, ..., a_{n+1}) = a_1 . f(a_2, ..., a_{n+1})
        + sum_{i=1}^{n} (-1)^i f(..., a_i a_{i+1}, ...)
        + (-1)^{n+1} f(a_1, ..., a_n) . a_{n+1}

which at arity 1 gives a.f(b) - f(ab) + f(a).b and at arity 2 gives
a.f(b,c) - f(ab,c) + f(a,bc) - f(a,b).c.  Cochains are kept in their
field's integer encoding (`linalg.Encoded`) and the coboundary runs on
it.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Bimodule, Verdict
from .errors import CapacityError, InputError
from .gerstenhaber import ARITY_CAP
from .linalg import Encoded, combine, decoded


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
    f = cochain._tensor
    # a_1 . f(a_2, ..., a_{n+1}):  contract f's output with the left action;
    # the axes are then (a_2..a_{n+1}, a_1, m'), so bring a_1 to the front
    terms = [(f.dot(M._left, ([n], [1])).transpose(
        n, *range(n), n + 1), 1)]
    # inner products (-1)^i f(..., a_i a_{i+1}, ...)
    for i in range(1, n + 1):
        # contract c's output into input slot i-1 of f; the axes are then
        # (a_i, a_{i+1}, a_1..a_{i-1}, a_{i+2}.., m')
        term = A._c.dot(f, ([2], [i - 1]))
        order = [*range(2, i + 1), 0, 1, *range(i + 1, n + 2)]
        terms.append((term.transpose(*order), (-1) ** i))
    # (-1)^{n+1} f(a_1, ..., a_n) . a_{n+1}; axes already (a_1..a_{n+1}, m')
    terms.append((f.dot(M._right, ([n], [0])), (-1) ** (n + 1)))
    return Cochain(A, M, combine(terms))


def is_cocycle(cochain: Cochain) -> Verdict:
    """True iff the coboundary vanishes; witness is the first nonzero
    coefficient index of d(cochain)."""
    d = coboundary(cochain)._tensor
    zero = Encoded(d.field, np.zeros(d.shape, dtype=np.int64))
    return Verdict.compare(d, zero, len(d.shape),
                           detail="coboundary does not vanish")


def zero_cochain(algebra: Algebra, module: Bimodule, arity: int) -> Cochain:
    return Cochain(algebra, module, Encoded(
        algebra.field, np.zeros((algebra.dim,) * arity + (module.dim,),
                                dtype=np.int64)))


def multiplication_cochain(algebra: Algebra) -> Cochain:
    """The product of A as an element of C^2(A, A)."""
    from .algebra import canonical_bimodule

    return Cochain(algebra, canonical_bimodule(algebra), algebra._c)
