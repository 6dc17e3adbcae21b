"""Exact linear algebra on numpy tensors of field scalars.

Every identity rbx decides runs on one exact integer kernel.  A tensor
of field scalars is encoded once, by its field, as an integer tensor
over a scale (`Encoded`): canonical representatives over scale 1 for
F_p, numerators over the common denominator for Q.  Contractions
(`Encoded.dot`) multiply the scales; signed sums (`combine`) and
comparisons (`Encoded.differs`) first bring their operands to one scale
(`common`).  All of them run on int64 when `kernel_dtype` proves that
no entry can reach 2^63, and on Python-int object arrays otherwise, so
nothing wraps and no scalar is boxed per multiply-add.  The field
decodes a tensor back to Fraction or FpElement scalars only where a
caller reads it (`Encoded.objects`), which for a verdict is the witness
alone.

Every identity is a residual of two contractions: the two sides are
computed as tensors over all basis tuples at once, and
`first_nonzero_index` finds the witness, the first index in C order
(that is, lexicographic order) at which the sides differ.

The contractions the operator identities share (`pullback` here, the
identity sides in `operators`) take a leading batch axis: exhaustive
search evaluates a block of candidates at once, and a checker is the
same evaluation on a block of one.  Exact elimination (`row_reduce`,
`rank`, `invert`) is fraction-free on the same integers.  The
object-dtype helpers (`zeros`, `identity`, `is_zero`, `tensors_equal`)
serve the vector API and the tests' references.
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
    return first_nonzero_index(np.asarray(arr, dtype=object)) is None


def tensors_equal(a, b):
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and first_nonzero_index(a - b) is None


def first_nonzero_index(arr, k=None):
    """Lexicographically first index over the leading `k` axes (default:
    all) at which `arr` has a nonzero (or true) entry, or None."""
    hits = np.asarray(arr).astype(bool)
    if k is not None:
        hits = hits.any(axis=tuple(range(k, hits.ndim)))
    flat = np.flatnonzero(hits)
    if flat.size == 0:
        return None
    return tuple(int(i) for i in np.unravel_index(flat[0], hits.shape))


def kernel_dtype(terms, *bounds):
    """np.int64 when every signed sum of `terms` products of factors
    bounded in absolute value by `bounds` stays below 2^63, else object
    (Python ints): an integer contraction in the returned dtype never
    wraps."""
    limit = terms
    for bound in bounds:
        limit *= max(bound, 1)
    return np.int64 if limit < 2 ** 63 else object


def max_abs(ints):
    """The largest absolute value in an integer tensor (0 if empty)."""
    if ints.dtype == object:
        return max(map(abs, ints.flat), default=0)
    return int(np.abs(ints).max(initial=0))


class Encoded:
    """A tensor of `field` scalars as the integer tensor `ints` over the
    positive integer `scale`: entry x is ints / scale.  `objects`, the
    tensor of scalars, is decoded on first use when the kernel built
    the encoding."""

    __slots__ = ("field", "ints", "scale", "_objects")

    def __init__(self, field, ints, scale=1, objects=None):
        self.field = field
        self.ints = ints
        self.scale = scale
        self._objects = objects

    @classmethod
    def of(cls, field, tensor):
        """The encoding of a tensor of scalars; an Encoded passes through."""
        if isinstance(tensor, cls):
            return tensor
        tensor = np.asarray(tensor, dtype=object)
        return cls(field, *field.encode(tensor), tensor)

    @property
    def objects(self):
        if self._objects is None:
            self._objects = self.field.decode(self.ints, self.scale)
        return self._objects

    @property
    def shape(self):
        return self.ints.shape

    def at(self, idx):
        """The scalars at index `idx`: a scalar, or a tensor of them."""
        return self.field.decode(np.asarray(self.ints[idx]), self.scale)[()]

    def dot(self, other, axes):
        """np.tensordot of two encoded tensors, exactly."""
        return Encoded(self.field, self.field.reduce(
            tensordot(self.ints, other.ints, axes)), self.scale * other.scale)

    def transpose(self, *axes):
        return Encoded(self.field, self.ints.transpose(*axes), self.scale)

    def __add__(self, other):
        return combine([(self, 1), (other, 1)])

    def __sub__(self, other):
        return combine([(self, 1), (other, -1)])

    def __neg__(self):
        return Encoded(self.field, self.field.reduce(-self.ints), self.scale)

    def differs(self, other):
        """Boolean tensor of the entries where self != other (other=None:
        where self != 0), decided on the integers over the common scale,
        mod p over F_p."""
        reduce = self.field.reduce
        if other is None:
            return reduce(self.ints) != 0
        (a, b), _ = common(self, other)
        return reduce(a) != reduce(b)


def decoded(name):
    """A read-only attribute: the scalars of the Encoded attribute `name`."""
    return property(lambda self: None if getattr(self, name) is None
                    else getattr(self, name).objects)


def tensordot(a, b, axes):
    """np.tensordot of two integer tensors, with `axes` a pair of axis
    lists, in int64 when `kernel_dtype` proves the bound and on Python
    ints otherwise."""
    terms = math.prod(a.shape[k] for k in axes[0])
    dtype = kernel_dtype(terms, max_abs(a), max_abs(b))
    return np.tensordot(a.astype(dtype, copy=False),
                        b.astype(dtype, copy=False), axes)


def combine(terms):
    """The signed sum of (Encoded, sign) terms of one field and shape,
    over the lcm of their scales."""
    ints, scale = common(*(t for t, _ in terms))
    dtype = kernel_dtype(1, sum(map(max_abs, ints)))
    total = 0
    for a, (_, sign) in zip(ints, terms):
        a = a.astype(dtype, copy=False)
        total = total + a if sign > 0 else total - a
    field = terms[0][0].field
    return Encoded(field, field.reduce(total), scale)


def common(*tensors):
    """The integer tensors of Encoded `tensors` over one scale, the lcm of
    theirs, and that scale.  Repeated tensors give one array."""
    scale = math.lcm(*(t.scale for t in tensors))
    out = {}
    for t in tensors:
        if id(t) not in out:
            factor = scale // t.scale
            out[id(t)] = t.ints if factor == 1 else \
                t.ints.astype(kernel_dtype(1, max_abs(t.ints), factor)) * factor
    return [out[id(t)] for t in tensors], scale


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


def row_reduce(m):
    """(rref, pivot_columns): the reduced row echelon form of an Encoded
    matrix, by fraction-free Gauss-Jordan elimination (Bareiss) on its
    integers.  A pivot step replaces every other row by lead * row -
    row[c] * pivot_row over the previous lead; every entry stays a minor
    of the input, so `field.divide` is exact.  Every pivot ends equal to
    the last lead d: rref is the integer matrix over scale d."""
    field = m.field
    a = m.ints.astype(object)       # minors outgrow int64
    rows, cols = a.shape
    pivots, lead = [], 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hits = np.flatnonzero(field.reduce(a[r:, c]))
        if hits.size == 0:
            continue
        a[[r, r + hits[0]]] = a[[r + hits[0], r]]
        prev, lead = lead, a[r, c]
        rest = np.arange(rows) != r
        a[rest] = field.divide(
            lead * a[rest] - np.multiply.outer(a[rest, c], a[r]), prev)
        pivots.append(c)
    if field.char:                  # F_p encodings are over scale 1
        a, lead = field.divide(a, lead), 1
    elif lead < 0:
        a, lead = -a, -lead
    return Encoded(field, a, lead), pivots


def rank(m):
    """The rank of an Encoded matrix."""
    return len(row_reduce(m)[1])


def invert(m):
    """Exact inverse of a square Encoded matrix, encoded; raises
    InputError if singular."""
    n, k = m.shape
    if n != k:
        raise InputError(f"cannot invert a {n}x{k} matrix")
    # [ints | scale * 1] reduces to [d * 1 | d * (ints / scale)^-1]
    eye = np.eye(n, dtype=object) * m.scale
    rref, pivots = row_reduce(
        Encoded(m.field, np.concatenate([m.ints, eye], axis=1)))
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return Encoded(m.field, rref.ints[:, n:], rref.scale)
