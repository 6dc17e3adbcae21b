"""Exact linear algebra on numpy tensors of field scalars.

Tensors hold Fraction or FpElement entries; numpy supplies the shape
bookkeeping.  `contract` is the exact integer contraction that every
Gerstenhaber insertion (`gerstenhaber.circ_i`) runs on: each operand
becomes an integer tensor plus a scale (the field's `encode`), the
integer tensors meet in one `np.tensordot`, in int64 when `kernel_dtype`
rules out overflow and on Python ints otherwise, and the field turns the
sum back into scalars (`decode`).  Nothing wraps and no scalar is boxed
per multiply-add.  The other contractions run on object-dtype tensors
and dispatch to the scalars' own exact arithmetic.

Every identity rbx decides is a residual of two contractions: the two
sides are computed as tensors over all basis tuples at once, and
`first_difference` finds the witness, the first index in C order (that
is, lexicographic order) at which the sides differ.

The contractions rbx's identities share (`pullback` here, the operator
identities in `operators`) also take integer tensors and a leading batch
axis: exhaustive search over F_p evaluates a block of candidates at once
on canonical representatives and reduces mod p only at the end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def zeros(shape, field):
    arr = np.empty(shape, dtype=object)
    arr[...] = field.zero
    return arr


def identity(n, field):
    arr = zeros((n, n), field)
    for i in range(n):
        arr[i, i] = field.one
    return arr


def is_zero(arr):
    return all(not bool(x) for x in np.asarray(arr, dtype=object).flat)


def tensors_equal(a, b):
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and is_zero(a - b)


def first_nonzero_index(arr, k=None):
    """Lexicographically first index over the leading `k` axes (default:
    all) at which `arr` has a nonzero entry, or None."""
    hits = np.asarray(arr, dtype=object).astype(bool)
    if k is not None:
        hits = hits.any(axis=tuple(range(k, hits.ndim)))
    flat = np.flatnonzero(hits)
    if flat.size == 0:
        return None
    return tuple(int(i) for i in np.unravel_index(flat[0], hits.shape))


def first_difference(lhs, rhs, k):
    """Lexicographically first index over the leading `k` axes at which
    the tensors `lhs` and `rhs` differ, or None."""
    return first_nonzero_index(lhs - rhs, k)


def kernel_dtype(terms, *bounds):
    """np.int64 when every signed sum of `terms` products of factors
    bounded in absolute value by `bounds` stays below 2^63, else object
    (Python ints): an integer contraction in the returned dtype never
    wraps."""
    limit = terms
    for bound in bounds:
        limit *= max(bound, 1)
    return np.int64 if limit < 2 ** 63 else object


def contract(field, a, b, axes):
    """np.tensordot(a, b, axes) for tensors of `field` scalars, exactly,
    with `axes` a pair of axis lists.  One integer contraction of the
    encoded operands, decoded over the product of their scales."""
    ia, sa = field.encode(a)
    ib, sb = field.encode(b)
    terms = math.prod(ia.shape[k] for k in axes[0])
    dtype = kernel_dtype(terms, _max_abs(ia), _max_abs(ib))
    out = np.tensordot(ia.astype(dtype), ib.astype(dtype), axes)
    return field.decode(out, sa * sb)


def _max_abs(ints):
    return max(map(abs, ints.flat), default=0)


def pullback(t, m, n=None, inner=None):
    """t(m_i, n_j) for every row i of m and row j of n (default: m):
    out[..., i, j] = sum_ab m[..., i, a] n[..., j, b] t[a, b] for an
    arity-2 tensor t; leading axes of m and n are batch axes.  `inner`,
    when the caller has it, is the first step m.t:
    inner[..., i, b] = sum_a m[..., i, a] t[a, b]."""
    if inner is None:
        inner = np.tensordot(m, t, axes=([-1], [0]))
    *batch, rows, b, k = inner.shape
    # one matrix product per batch entry: n[j, b] against inner as [b, (i, k)]
    flat = np.swapaxes(inner, -3, -2).reshape(*batch, b, rows * k)
    out = np.matmul(m if n is None else n, flat)
    return np.swapaxes(out.reshape(*batch, -1, rows, k), -3, -2)


def apply_multilinear(tensor, vectors):
    """Value of a multilinear map on coordinate vectors, one input axis
    contracted per vector."""
    for v in vectors:
        tensor = np.tensordot(np.asarray(v, dtype=object), tensor, axes=([0], [0]))
    return tensor


def apply_matrix(vec, matrix):
    """Row-vector convention: image of `vec` under the map with `matrix`
    (shape source_dim x target_dim)."""
    return np.dot(np.asarray(vec, dtype=object), matrix)


def row_reduce(matrix):
    """Reduced row echelon form over the exact scalar field.

    Returns (rref, pivot_columns).  The input is not modified.
    """
    m = np.array(matrix, dtype=object, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if bool(m[i, c])), None)
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        lead = m[r, c]
        m[r] = np.array([x / lead for x in m[r]], dtype=object)
        for i in range(rows):
            if i != r and bool(m[i, c]):
                m[i] = m[i] - m[r] * m[i, c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix):
    return len(row_reduce(matrix)[1])


def invert(matrix, field):
    """Exact inverse of a square matrix; raises InputError if singular."""
    matrix = np.asarray(matrix, dtype=object)
    n, m = matrix.shape
    if n != m:
        raise InputError(f"cannot invert a {n}x{m} matrix")
    aug = np.concatenate([matrix, identity(n, field)], axis=1)
    rref, pivots = row_reduce(aug)
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return rref[:, n:]


class Span:
    """A subspace given by spanning vectors, with exact membership tests."""

    def __init__(self, vectors):
        mat = np.array([np.asarray(v, dtype=object) for v in vectors], dtype=object)
        self.rref, self.pivots = row_reduce(mat)
        self.rank = len(self.pivots)

    def reduce(self, vecs):
        """Residual of each vector (the last axis of `vecs`) after
        elimination against the span basis."""
        v = np.array(vecs, dtype=object)
        for r, c in enumerate(self.pivots):
            v = v - np.multiply.outer(v[..., c], self.rref[r])
        return v
