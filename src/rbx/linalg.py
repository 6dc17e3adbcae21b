"""Exact linear algebra on integer tensors of encoded field scalars.

Every identity rbx decides runs on one exact integer kernel, and its
one tensor form is `Encoded`: a tensor of field scalars encoded, by its
field, as an integer tensor over a scale (representatives over scale 1
for F_p, numerators over the common denominator for Q).  Every
contraction is one call, `einsum`, with numpy's subscripts; it
multiplies the scales.  Signed sums (`combine`) and comparisons
(`Encoded.differs`) first bring their operands to one scale (`common`).
Where tensors meet, in `einsum` and `common`, is the one field check:
tensors of two fields are refused (`_one_field`).  Fraction or FpElement
scalars exist only at the public boundary: `Encoded.of` encodes them,
refusing any of another field (`is_scalar`), and the field decodes them
where a caller reads them (`Encoded.objects`, `Encoded.at`), the witness
of a verdict.  An entry point that takes a tensor of one fixed shape
reads it with `_shaped`, which refuses any other in the caller's words.

The integers have two forms.  Encoding (and the schema loader) builds
an `IntTensor`: a shape and the flat C-order list of its Python ints,
with only the operations `Encoded` uses; numpy, optional and imported
on first use, holds int64 arrays only.  One function, `_route`, picks
the backend of every product (`einsum`) and sum (`combine`): pure
Python when all operands are IntTensors and the product's dense work
(the product of all its letter sizes) is at most `PURE_WORK`, or when
numpy does not import (`has_numpy`); else int64 numpy when
`fits_int64` shows from the operands that no entry can reach 2^63 (over
F_p after reducing them mod p, if need be), and a product's operands
stay converted; else pure, on Python ints.  A numpy term that int64
cannot rescale goes pure.  `einsum` alone decides the axis layout of a
product, with one plan for both backends: np.matmul, or the pure
`_products`, reads an operand whose axes are in [batch, free,
contracted] order in place (a view copies lines as slices, `_gather`).
The pure one loops over rows, visiting only nonzero entries, but for a
block of small matrices (more rows in all than k * m, and no fewer pairs
than rows per pair): over the index triples, pairs innermost (`_columns`).
The exhaustive search applies the rule to the dense work of its whole
box: a small search, or any without numpy, builds its candidate blocks
as IntTensors, and every product of it runs pure; a larger one builds
int64 numpy blocks, so its products run there, however few of its
candidates its pruned tree evaluates.
Elimination (`row_reduce`, `rank`, `invert`, fraction-free) runs on
rows of Python ints.

Every identity is a residual of two contractions: the two sides are
computed as tensors over all basis tuples at once, and
`first_nonzero_index` (or `first_difference`, for several residuals)
finds the witness, the first index in C order (that is, lexicographic
order) at which the sides differ.  The operator identities' specs (in
`operators`) take leading batch axes, "...": exhaustive search (`search`)
evaluates a block of candidates at once, and a checker is the same
evaluation on one candidate.  The one object-dtype helper, `is_zero`,
stays because the benchmark's tracer wraps it by name.  The capacity
constants live here, the arity cap of `gerstenhaber` and `cochains` too.
"""
from __future__ import annotations

import math
import re
from itertools import chain, compress, count, filterfalse
from operator import add, mul, sub

from .errors import InputError

# A dense pure product cost about 80 ns per unit of work on a shared
# 2-CPU x86_64 VM (Python 3.11) when the bound was set (commit e7c5e0f),
# so one at this bound took about 20 ms: a product of the size at which
# pure Python would cost as much as importing numpy (100-180 ms there,
# about 1.5e6 units) goes to numpy with room for the several products of
# one check.  Sparse operands ran 10 to 40 times faster at 10% density
# and 8 to 20 dimensions; the in-place kernel later read 140-220 ns and
# 20 to 60 times on that VM, whose speed drifts by up to 2x.  The
# benchmark's checking verbs stay below the bound (their largest
# product, a bracket on a 10-dimensional space, is 1e5), while a dense
# 14-dimensional associativity check (5.4e5) and the flows on degree-30
# polynomials (1.3e7) go to numpy.  A search counts its whole dense work
# against the bound: the benchmark's largest (mult-by-x over F7, 2,401
# candidates of 80 units each, and null3 rb over F2, 512 of 324) stay
# pure, while mult-by-x over F11 (1.2e6) goes to numpy.
PURE_WORK = 2 ** 18

# A search checks a level of its tree (`search.search_rows`) only when
# the level's box of prefixes, p^t for the first t entries, is at least
# this, so that the extra call repays its fixed cost.  On the same VM
# (Python 3.11.7), one pure call of a kx2 identity took 0.30-0.45 ms on a
# block of one candidate and 5.5-6.3 us more per candidate (0.2 ms and
# 0.5-0.8 us on numpy): a call costs about 60 candidates' evaluation,
# which a level that prunes (p - 1)/p of its children repays from about
# 60/(p - 1) prefixes.  Summed best-of-7 times of 17 searches like the
# benchmark's (kx2 over F3, F5 and F7, each kind; the tensor square over
# F2; null3 over F2) read 75.5, 74.3, 67.3, 68.5, 72.9 and 113.4 ms at
# 8, 16, 32, 64, 128 and 1024, and 113.1 ms with no level checked
# before the last.  At 32 the 81-candidate searches over F3 stay one
# evaluation of the whole space, which at 27 or below they are not.
SEARCH_LEVEL = 32

# The largest arity of a multimap (`gerstenhaber`) or cochain (`cochains`):
# a bracket of arities m and n has arity m + n - 1.
ARITY_CAP = 4


def _np():
    """numpy, imported on first use."""
    import numpy
    return numpy


def has_numpy():
    """Whether numpy imports; without it, everything runs pure."""
    try:
        return bool(_np())
    except ImportError:
        return False


def _strides(shape):
    return [math.prod(shape[k + 1:]) for k in range(len(shape))]


def _offsets(base, picks):
    """base + sum_k i_k * stride_k over every choice of an i_k from the
    (stride_k, indices_k) picks, in C order."""
    offsets = [base]
    for stride, indices in picks:
        offsets = [o + i * stride for o in offsets for i in indices]
    return offsets


def _gather(flat, base, picks):
    """`_offsets` read from `flat`, a line at a time: slices along the
    longer end axis that is a range (interleaved when it is the first),
    after folding axes of one entry and merging ranges that run on into
    each other, and the rest repeated under a leading axis of stride 0.
    Only lists at both ends are read entry by entry."""
    runs = []
    for stride, ix in picks:
        if isinstance(ix, range) and len(ix) == 1:
            base += stride * ix.start
        elif runs and isinstance(ix, range) and isinstance(runs[-1][1], range) \
                and runs[-1][0] * runs[-1][1].step == stride * ix.step * len(ix):
            outer, out = runs.pop()
            base += outer * out.start + stride * ix.start
            runs.append((stride * ix.step, range(len(out) * len(ix))))
        else:
            runs.append((stride, ix))
    if runs and runs[0][0] == 0:
        return _gather(flat, base, runs[1:]) * len(runs[0][1])
    shape = [len(ix) for _, ix in runs]
    ends = [k for k in (len(runs) - 1, 0)
            if runs and isinstance(runs[k][1], range)]
    if not ends or 0 in shape:
        return list(map(flat.__getitem__, _offsets(base, runs)))
    axis = max(ends, key=shape.__getitem__)
    stride, ix = runs.pop(axis)
    starts, n, step = _offsets(base + stride * ix.start, runs), shape[axis], \
        stride * ix.step
    # the stop of a line that steps down past entry 0 is None
    lines = [flat[s:s + n * step if s + n * step >= 0 else None:step]
             for s in starts] if step else [[flat[s]] * n for s in starts]
    if len(lines) == 1:
        return lines[0]
    return list(chain.from_iterable(zip(*lines) if axis == 0 else lines))


def unravel(pos, shape):
    """The index in `shape` of flat C-order position `pos`."""
    idx = []
    for n in reversed(shape):
        pos, i = divmod(pos, n)
        idx.append(i)
    return tuple(reversed(idx))


def nested(flat, shape):
    """The nested lists of a flat C-order list of entries of `shape`."""
    if len(shape) < 2:
        return list(flat) if shape else flat[0]
    step = len(flat) // shape[0] if shape[0] else 0
    return [nested(flat[i * step:(i + 1) * step], shape[1:])
            for i in range(shape[0])]


def _array(raw):
    """(shape, entries in C order) of a nested-list tensor, its shape
    found as numpy finds an object array's: an axis for each level at
    which every item is a list, all of one length, up to numpy's limit
    of 64 axes (deeper lists are entries)."""
    shape, level = [], [raw]
    while len(shape) < 64 and level and all(type(x) is list for x in level):
        n = len(level[0])
        if any(len(x) != n for x in level):
            break
        shape.append(n)
        level = [y for x in level for y in x]
    return tuple(shape), level


class IntTensor:
    """A pure-Python integer tensor: `shape` and `flat`, its Python ints
    in C order.  Transposes and indexing copy, reading `flat` a line at
    a time (`_gather`); reshapes share it, and products read it in place.
    Sums take a tensor of the same shape; `*`, `%` and `!=` take an int."""

    __slots__ = ("shape", "flat")

    def __init__(self, shape, flat):
        self.shape, self.flat = tuple(shape), flat

    def tolist(self):
        return nested(self.flat, self.shape)

    def reshape(self, *shape):
        return IntTensor(shape, self.flat)

    def ravel(self):
        return IntTensor((len(self.flat),), self.flat)

    def _take(self, base, picks):
        return IntTensor([len(ix) for _, ix in picks],
                         _gather(self.flat, base, picks))

    def transpose(self, *axes):
        strides = _strides(self.shape)
        return self._take(0, [(strides[k], range(self.shape[k]))
                              for k in axes or range(len(self.shape))[::-1]])

    def __getitem__(self, idx):
        """numpy's indexing by ints, slices, one Ellipsis and one list of
        ints, whose axis stays in its place."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        at = next((k for k, i in enumerate(idx) if i is Ellipsis), len(idx))
        fill = len(self.shape) - len(idx) + (at < len(idx))
        idx = idx[:at] + (slice(None),) * fill + idx[at + 1:]
        base, picks = 0, []
        for i, n, stride in zip(idx, self.shape, _strides(self.shape),
                                strict=True):
            if isinstance(i, slice):
                picks.append((stride, range(*i.indices(n))))
            elif any(type(k).__name__ in ("bool", "bool_") or not -n <= k < n
                     for k in (i if hasattr(i, "__len__") else [i])):
                # bools, Python's or numpy's, are a mask to numpy
                raise IndexError(f"index {i!r}: want ints in [-{n}, {n})")
            elif hasattr(i, "__len__"):
                picks.append((stride, [k % n for k in i]))
            else:
                base += i % n * stride
        return self._take(base, picks)

    def __add__(self, other):
        return IntTensor(self.shape, list(map(add, self.flat, other.flat)))

    def __sub__(self, other):
        return IntTensor(self.shape, list(map(sub, self.flat, other.flat)))

    def __neg__(self):
        return self * -1

    def __mul__(self, factor):
        return IntTensor(self.shape, [x * factor for x in self.flat])

    def __mod__(self, p):
        return IntTensor(self.shape, [x % p for x in self.flat])

    def __ne__(self, zero):
        return IntTensor(self.shape, [x != zero for x in self.flat])

    def any(self):
        return any(self.flat)


def _products(x, y, n, k, m):
    """The n x m products of the n x k matrices of x and the k x m
    matrices of y, operands as `_operand` gives them: of int64 arrays,
    np.matmul; of pure ones, (a, picks_a) and (b, picks_b), the flat list
    of the products of the matrices at a[s:] and b[t:] for each pair of
    starts (s, t), pair after pair, each operand's starts given by
    `_gather`'s batch picks, one per batch axis (stride 0 where the axis
    broadcasts).  It loops over rows, visiting only the nonzero entries
    of both, but for more rows in all than k * m and no fewer pairs than
    rows per pair (a search's block of small matrices): over the index
    triples, each a product of operand columns gathered over all pairs."""
    if not isinstance(x, tuple):
        return x @ y
    (a, picks_a), (b, picks_b) = x, y
    pairs = math.prod(len(ix) for _, ix in picks_a)
    if pairs * n > k * m and pairs >= n:
        return _columns(a, picks_a, b, picks_b, n, k, m)
    out, rows_at = [], {}
    for sa, sb in zip(_offsets(0, picks_a), _offsets(0, picks_b)):
        if sb not in rows_at:
            rows_at[sb] = [[(j, v) for j, v in enumerate(b[r:r + m]) if v]
                           for r in range(sb, sb + k * m, m or 1)]
        rows = rows_at[sb]
        for i in range(sa, sa + n * k, k) if k else [sa] * n:
            acc = [0] * m
            for x, row in zip(a[i:i + k], rows):
                if x:
                    for j, v in row:
                        acc[j] += x * v
            out += acc
    return out


def _columns(a, picks_a, b, picks_b, n, k, m):
    """`_products` of a block of small matrices, the pairs innermost:
    entry (i, l) of every product, as sums over j of a[s + i k + j]
    b[t + j m + l] mapped over the pairs, skipping all-zero columns."""
    cols_a, cols_b = ([col if any(col) else None
                       for col in (_gather(flat, q, picks) for q in range(size))]
                      for flat, picks, size in ((a, picks_a, n * k),
                                                (b, picks_b, k * m)))
    zero, out = [0] * math.prod(len(ix) for _, ix in picks_a), []
    for i in range(n):
        row = cols_a[i * k:(i + 1) * k]
        for col in range(m):
            acc = None
            for x, y in zip(row, cols_b[col::m]):
                if x and y:
                    term = map(mul, x, y)
                    acc = term if acc is None else map(add, acc, term)
            out.append(zero if acc is None else list(acc))
    return list(chain.from_iterable(zip(*out)))


def _subscripts(spec, *shapes):
    """The labels of the operands and of the output of `spec`: its
    letters after, for a leading "...", the ints -e..-1 of the e batch
    axes, aligned at the right as numpy aligns them; and each label's size.
    Refuses a spec that does not fit the shapes or repeats a letter in
    one term, and a letter of one operand only that is not in the output
    (numpy would sum over it)."""
    ins, out = spec.split("->")
    subs = ins.split(",") + [out]
    dots = [len(shape) - len(s) + 3 if s[:3] == "..." else 0
            for s, shape in zip(subs, shapes)]
    dots.append(max(dots) if out[:3] == "..." else 0)
    labels = [[*range(-e, 0), *s.lstrip(".")] for s, e in zip(subs, dots)]
    (la, lb, lo), sizes = labels, {}
    if not all(len(ls) == len(shape) and all(
            sizes.setdefault(l, n) == n for l, n in zip(ls, shape))
            for ls, shape in zip(labels, shapes)) or \
            any(len(set(ls)) < len(ls) for ls in labels) or \
            (set(la) ^ set(lb)) - set(lo) or not set(lo) <= set(sizes):
        raise ValueError(f"einsum {spec!r} of shapes {shapes}: each letter "
                         f"of one size, once per operand, and in both "
                         f"operands or in the output")
    return labels, sizes


def _operand(ints, labels, lead, tail, sizes, dims):
    """An operand as `_products` or np.matmul reads it: its labels in
    `lead` first, then `tail` (rows then contracted, or contracted then
    columns, of sizes `dims`).  A pure one is read in place, and copied
    only when `tail` is not its last axes; it gives its flat list and a
    (stride, range) pick per lead label, stride 0 where it lacks one."""
    order = [labels.index(l) for l in lead + tail if l in labels]
    if not isinstance(ints, IntTensor):
        return ints.transpose(order).reshape(
            [sizes[l] if l in labels else 1 for l in lead] + dims)
    if labels[len(labels) - len(tail):] != tail:
        ints, labels = ints.transpose(*order), [labels[k] for k in order]
    strides = _strides(ints.shape)
    return ints.flat, [(strides[labels.index(l)] if l in labels else 0,
                        range(sizes[l])) for l in lead]


def einsum(spec, a, b):
    """The contraction `spec` of the Encoded tensors a and b, exactly:
    numpy's subscripts restricted to letters, a leading "..." (batch
    axes, which one operand may lack) and an explicit "->", as
    "iml,jkm->ijkl" for e_i (e_j e_k).  One plan serves both backends:
    the output's longest trailing run of letters of one operand only,
    then of the other (both orders tried), is the n x m part of a matrix
    product over the contracted letters, and its leading letters pick
    batch entries, at stride 0 in an operand without the letter.  The
    dense work is the product of all letter sizes, and an entry sums
    the product of the contracted sizes."""
    field = _one_field([a, b])
    (la, lb, out), sizes = _subscripts(spec, a.shape, b.shape)
    # each output letter of a only, of b only, or of both
    tags = "".join("a" if l not in lb else "b" if l not in la else "-"
                   for l in out)
    runs = [re.search(run, tags) for run in ("a*b*$", "b*a*$")]
    swap = len(runs[1][0]) > len(runs[0][0])
    if swap:
        a, b, la, lb = b, a, lb, la
    start = runs[swap].start()
    split = start + runs[swap][0].count("ab"[swap])
    lead, rows, cols = out[:start], out[start:split], out[split:]
    con = [l for l in la if l in lb and l not in out]
    n, k, m = (math.prod(sizes[l] for l in part) for part in (rows, con, cols))
    ints = _route(field, [a.ints, b.ints],
                  lambda *bounds: fits_int64(k, *bounds),
                  math.prod(sizes.values()))
    x, y = (_operand(i, ls, lead, tail, sizes, dims) for i, ls, tail, dims
            in zip(ints, (la, lb), (rows + con, con + cols), ([n, k], [k, m])))
    shape, product = [sizes[l] for l in out], _products(x, y, n, k, m)
    if isinstance(product, list):
        product = IntTensor(shape, product)
    else:
        a.ints, b.ints = ints       # converted once, for later products
        product = product.reshape(shape)
    return Encoded(field, product, a.scale * b.scale)


def to_numpy(ints):
    """The integers as an int64 numpy array; numpy input passes through.
    Callers convert only what `fits_int64` has shown int64 holds."""
    if not isinstance(ints, IntTensor):
        return ints
    np = _np()
    return np.array(ints.flat, dtype=np.int64).reshape(ints.shape)


def to_pure(ints):
    """The integers as an IntTensor; an IntTensor passes through."""
    if isinstance(ints, IntTensor):
        return ints
    return IntTensor(ints.shape, ints.ravel().tolist())


def eye(n, value=1):
    """The n x n IntTensor with `value` on its diagonal, zero elsewhere."""
    flat = [0] * (n * n)
    flat[::n + 1] = [value] * n
    return IntTensor((n, n), flat)


def is_zero(arr):
    return first_nonzero_index(_np().asarray(arr, dtype=object)) is None


def first_nonzero_index(arr, k=None):
    """Lexicographically first index over the leading `k` axes (default:
    all) at which `arr` has a nonzero (or true) entry, or None: the
    first such index over all axes, cut to its first k."""
    if isinstance(arr, IntTensor):
        shape = arr.shape
        pos = next(compress(count(), arr.flat), None)
    else:
        hits = _np().asarray(arr).astype(bool)
        shape, hits = hits.shape, hits.ravel()
        pos = int(hits.argmax()) if hits.size else None
        if pos is not None and not hits[pos]:
            pos = None
    if pos is None:
        return None
    return unravel(pos, shape)[:k]


def first_difference(pairs, k):
    """The first index in C order of the differences of the (lhs, rhs)
    pairs of Encoded tensors (rhs None: lhs against zero) stacked at axis
    k: the pairs' common leading k axes, then the pair's position, then
    its own remaining axes.  None when every pair agrees."""
    hits = []
    for n, (lhs, rhs) in enumerate(pairs):
        idx = first_nonzero_index(lhs.differs(rhs))
        if idx is not None:
            hits.append(idx[:k] + (n,) + idx[k:])
    return min(hits, default=None)


def embed(shape, blocks):
    """An integer tensor of `shape`, zero but for each (index, ints)
    block written at its index (a tuple of ints, slices and one list):
    on int64 numpy when some block is numpy and int64 holds every block,
    pure otherwise."""
    ints = [b for _, b in blocks]
    if all(isinstance(b, IntTensor) for b in ints) or \
            not fits_int64(1, max(map(max_abs, ints))):
        out = IntTensor(shape, [0] * math.prod(shape))
        here = IntTensor(shape, list(range(len(out.flat))))
        for (index, _), b in zip(blocks, ints):
            for pos, value in zip(here[index].flat, to_pure(b).flat):
                out.flat[pos] = value
        return out
    np = _np()
    out = np.zeros(shape, dtype=np.int64)
    for (index, _), b in zip(blocks, ints):
        out[index] = to_numpy(b)
    return out


def fits_int64(terms, *bounds):
    """Whether every signed sum of `terms` products of factors bounded in
    absolute value by `bounds` stays below 2^63, and so does each bound:
    the factors and an integer contraction of them on int64 never wrap."""
    return terms * math.prod(max(bound, 1) for bound in bounds) < 2 ** 63


def max_abs(ints):
    """The largest absolute value in an integer tensor (0 if empty)."""
    if isinstance(ints, IntTensor):
        return max(map(abs, ints.flat), default=0)
    return max(int(ints.max(initial=0)), -int(ints.min(initial=0)))


class Encoded:
    """A tensor of `field` scalars as the integer tensor `ints` (an
    IntTensor or a numpy array) over the positive integer `scale`: entry
    x is ints / scale.  `objects`, the tensor of scalars, is decoded on
    first use."""

    __slots__ = ("field", "ints", "scale", "_objects")

    def __init__(self, field, ints, scale=1):
        self.field = field
        self.ints = ints
        self.scale = scale
        self._objects = None

    @classmethod
    def of(cls, field, tensor):
        """The pure encoding of a tensor of `field` scalars, refusing any
        other: a scalar, nested lists (shaped by `_array`) or a numpy
        array; an Encoded of `field` passes through."""
        if isinstance(tensor, cls):
            if tensor.field != field:
                raise InputError(f"entries must be {field.name} scalars, "
                                 f"not {tensor.field.name} ones")
            return tensor
        shape, flat = (tensor.shape, tensor.ravel().tolist()) \
            if hasattr(tensor, "shape") else _array(tensor)
        for x in filterfalse(field.is_scalar, flat):
            raise InputError(f"entries must be {field.name} scalars: {x!r}")
        ints, scale = field.encode(flat)
        return cls(field, IntTensor(shape, ints), scale)

    @property
    def objects(self):
        if self._objects is None:
            # one field.scalar per distinct canonical integer; read-only,
            # as a write would not reach the integers the checks run on
            np, flat = _np(), to_pure(self.field.reduce(self.ints)).flat
            at = {v: k for k, v in enumerate(dict.fromkeys(flat))}
            index = np.fromiter(map(at.__getitem__, flat), np.intp, len(flat))
            scalars = np.empty(len(at), dtype=object)
            scalars[:] = [self.field.scalar(v, self.scale) for v in at]
            self._objects = scalars[index].reshape(self.shape)
            self._objects.flags.writeable = False
        return self._objects

    @property
    def shape(self):
        return self.ints.shape

    def reshape(self, *shape):
        return Encoded(self.field, self.ints.reshape(*shape), self.scale)

    def at(self, idx):
        """The scalars at index `idx`: a scalar, or nested lists of them."""
        values = self.ints[idx].tolist()

        def scalars(x):
            return [scalars(y) for y in x] if isinstance(x, list) else \
                self.field.scalar(x, self.scale)
        return scalars(values)

    def __getitem__(self, idx):
        return Encoded(self.field, self.ints[idx], self.scale)

    def transpose(self, *axes):
        return Encoded(self.field, self.ints.transpose(*axes), self.scale)

    def __add__(self, other):
        return combine([(self, 1), (other, 1)])

    def __sub__(self, other):
        return combine([(self, 1), (other, -1)])

    def __neg__(self):
        return Encoded(self.field, -self.ints, self.scale)

    def differs(self, other):
        """Boolean tensor of the entries where self != other (other=None:
        where self != 0), decided on the integers over the common scale,
        mod p over F_p."""
        diff = self if other is None else self - other
        return self.field.reduce(diff.ints) != 0


def _shaped(field, m, shape, refusal):
    """`Encoded.of` a tensor of `shape`; any other shape is refused with
    `refusal`, each {} in it filled with the shape the tensor has."""
    m = Encoded.of(field, m)
    if m.shape != shape:
        raise InputError(refusal.format(m.shape))
    return m


def decoded(name):
    """A read-only attribute: the scalars of the Encoded attribute `name`."""
    return property(lambda self: None if getattr(self, name) is None
                    else getattr(self, name).objects)


def _route(field, ints, fits, work=None):
    """The integer operands `ints` of one product, of dense `work`, or
    of one sum (work None) on the backend it runs on: as they are when
    all are IntTensors and the work is at most `PURE_WORK` or numpy does
    not import; else as int64 arrays when `fits` holds of their largest
    absolute values, over F_p after reducing them mod p if they do not
    fit as they are; else as IntTensors."""
    if work is not None and work > PURE_WORK and has_numpy() or \
            not all(isinstance(a, IntTensor) for a in ints):
        if fits(*map(max_abs, ints)):
            return [to_numpy(a) for a in ints]
        reduced = [field.reduce(a) for a in ints] if field.char else None
        if reduced and fits(*map(max_abs, reduced)):
            return [to_numpy(a) for a in reduced]
    return [to_pure(a) for a in ints]


def _one_field(tensors):
    """The field of the Encoded `tensors`, refusing tensors of two."""
    for t in tensors:
        if t.field != tensors[0].field:
            raise InputError(f"tensors are over different fields, "
                             f"{tensors[0].field.name} and {t.field.name}")
    return tensors[0].field


def combine(terms):
    """The signed sum of (Encoded, sign) terms of one field and shape,
    over the lcm of their scales, on the backend `_route` picks."""
    field = terms[0][0].field
    ints, scale = common(*(t for t, _ in terms))
    first, *rest = _route(field, ints,
                          lambda *bounds: fits_int64(1, sum(bounds)))
    total = first if terms[0][1] > 0 else -first
    for a, (_, sign) in zip(rest, terms[1:]):
        total = total + a if sign > 0 else total - a
    return Encoded(field, total, scale)


def common(*tensors):
    """The integer tensors of Encoded `tensors` of one field (`_one_field`)
    over one scale, the lcm of theirs, and that scale.  Repeated tensors
    give one array; a numpy one that int64 cannot rescale goes pure."""
    _one_field(tensors)
    scale = math.lcm(*(t.scale for t in tensors))
    out = {}
    for t in tensors:
        if id(t) not in out:
            factor = scale // t.scale
            out[id(t)] = t.ints if factor == 1 else times(t.ints, factor)
    return [out[id(t)] for t in tensors], scale


def times(ints, factor):
    """The integer tensor `ints` times the int `factor`, on Python ints
    where int64 cannot hold it."""
    if not isinstance(ints, IntTensor) and \
            not fits_int64(1, max_abs(ints), abs(factor)):
        ints = to_pure(ints)
    return ints * factor


def row_reduce(m):
    """(rref, pivot_columns): the reduced row echelon form of an Encoded
    matrix, by fraction-free Gauss-Jordan elimination (Bareiss) on rows of
    Python ints.  A pivot step replaces every other row by lead * row -
    row[c] * pivot_row over the previous lead; every entry stays a minor
    of the input, so `field.divide` is exact.  Every pivot ends equal to
    the last lead d: rref is the integer matrix over scale d."""
    field, (rows, cols) = m.field, m.shape
    a = field.reduce(m.ints).tolist()
    pivots, lead = [], 1
    for c in range(cols):
        r = len(pivots)
        hit = next((i for i in range(r, rows) if a[i][c]), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        prev, lead, pivot = lead, a[r][c], a[r]
        for i, row in enumerate(a):
            if i != r:
                x = row[c]
                a[i] = field.divide(
                    [lead * y - x * z for y, z in zip(row, pivot)], prev)
        pivots.append(c)
    if field.char:                  # F_p encodings are over scale 1
        a, lead = [field.divide(row, lead) for row in a], 1
    elif lead < 0:
        a, lead = [[-x for x in row] for row in a], -lead
    flat = [x for row in a for x in row]
    return Encoded(field, IntTensor((rows, cols), flat), lead), pivots


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
    rows = slice(None)
    rref, pivots = row_reduce(Encoded(m.field, embed((n, 2 * n), [
        ((rows, slice(None, n)), m.ints),
        ((rows, slice(n, None)), eye(n, m.scale))])))
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return rref[:, n:]
