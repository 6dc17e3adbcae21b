"""Hochschild cochain complex C^n(A, M): coboundary and cocycle tests.

A cochain of arity n is a multilinear map A^n -> M stored as a tensor of
shape (dA,)*n + (dM,).  The coboundary is the standard alternating-sum
formula

    (d f)(a_1, ..., a_{n+1}) = a_1 . f(a_2, ..., a_{n+1})
        + sum_{i=1}^{n} (-1)^i f(..., a_i a_{i+1}, ...)
        + (-1)^{n+1} f(a_1, ..., a_n) . a_{n+1}

which at arity 1 gives a.f(b) - f(ab) + f(a).b and at arity 2 gives
a.f(b,c) - f(ab,c) + f(a,bc) - f(a,b).c.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Bimodule, Verdict
from .errors import CapacityError, InputError
from .gerstenhaber import ARITY_CAP
from .linalg import apply_multilinear, is_zero, zeros


class Cochain:
    """Element of C^n(A, M), n >= 1."""

    def __init__(self, algebra: Algebra, module: Bimodule, tensor):
        tensor = np.asarray(tensor, dtype=object)
        dA, dM = algebra.dim, module.dim
        if tensor.ndim < 2 or tensor.shape[-1] != dM or \
                any(s != dA for s in tensor.shape[:-1]):
            raise InputError(
                f"cochain tensor shape {tensor.shape} does not match "
                f"C^n(A={dA}, M={dM})")
        self.algebra = algebra
        self.module = module
        self.tensor = tensor
        self.arity = tensor.ndim - 1

    def __call__(self, *vectors):
        if len(vectors) != self.arity:
            raise InputError(f"cochain of arity {self.arity} applied to "
                             f"{len(vectors)} arguments")
        return apply_multilinear(self.tensor, vectors)

    def __add__(self, other):
        return Cochain(self.algebra, self.module, self.tensor + other.tensor)

    def __sub__(self, other):
        return Cochain(self.algebra, self.module, self.tensor - other.tensor)

    def __neg__(self):
        return Cochain(self.algebra, self.module, -self.tensor)

    def is_zero_map(self):
        return is_zero(self.tensor)

    def __repr__(self):
        return f"Cochain(arity={self.arity}, A={self.algebra.dim}, M={self.module.dim})"


def coboundary(cochain: Cochain) -> Cochain:
    """Hochschild coboundary C^n -> C^{n+1}."""
    n = cochain.arity
    if n + 1 > ARITY_CAP:
        raise CapacityError(f"coboundary of arity {n} exceeds the arity cap {ARITY_CAP}")
    A, M = cochain.algebra, cochain.module
    dA, dM = A.dim, M.dim
    f = cochain.tensor
    out_shape = (dA,) * (n + 1) + (dM,)
    # a_1 . f(a_2, ..., a_{n+1}):  contract f's output with the left action
    term = np.tensordot(f, M.left, axes=([n], [1]))
    # axes now (a_2..a_{n+1}, a_1, m'); bring a_1 to the front
    result = np.moveaxis(term, n, 0)
    # inner products (-1)^i f(..., a_i a_{i+1}, ...)
    sign = -1
    for i in range(1, n + 1):
        # contract c's output into input slot i-1 of f
        term = np.tensordot(A.c, f, axes=([2], [i - 1]))
        # axes: (a_i, a_{i+1}, a_1..a_{i-1}, a_{i+2}.., m')
        term = np.moveaxis(term, [0, 1], [i - 1, i])
        result = result + term if sign > 0 else result - term
        sign = -sign
    # (-1)^{n+1} f(a_1, ..., a_n) . a_{n+1}
    term = np.tensordot(f, M.right, axes=([n], [0]))
    # axes already (a_1..a_n, a_{n+1}, m')
    result = result + term if sign > 0 else result - term
    assert result.shape == out_shape
    return Cochain(A, M, result)


def is_cocycle(cochain: Cochain) -> Verdict:
    """True iff the coboundary vanishes; witness is the first nonzero
    coefficient index of d(cochain)."""
    d = coboundary(cochain).tensor
    return Verdict.compare(d, zeros(d.shape, cochain.algebra.field), d.ndim,
                           detail="coboundary does not vanish")


def zero_cochain(algebra: Algebra, module: Bimodule, arity: int) -> Cochain:
    return Cochain(algebra, module,
                   zeros((algebra.dim,) * arity + (module.dim,), algebra.field))


def multiplication_cochain(algebra: Algebra) -> Cochain:
    """The product of A as an element of C^2(A, A)."""
    from .algebra import canonical_bimodule

    return Cochain(algebra, canonical_bimodule(algebra), algebra.c)
