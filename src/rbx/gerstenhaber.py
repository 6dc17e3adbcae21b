"""Graded space of multilinear maps on a coordinate space B with the
Gerstenhaber calculus: insertion compositions, the bar-circle product
and the graded-commutator bracket.

A MultiMap of arity m on a d-dimensional space is a tensor of shape
(d,)*m + (d,); the last axis indexes the output.  The bracket of maps of
arities m and n has arity m+n-1, so the arity cap 4 (`linalg.ARITY_CAP`)
bounds everything in scope.

Conventions (degree of an arity-m map is m):

    (f o_i g)(b_1..b_{m+n-1}) = f(b_1,..,b_{i-1}, g(b_i..b_{i+n-1}), ..)
    f obar g  = sum_{i=1}^{m} (-1)^{(i-1)(n-1)} f o_i g
    [f, g]    = f obar g - (-1)^{(m-1)(n-1)} g obar f

For an arity-1 p with p o p = 0 and X = [., p], the half term of X^2 on
arity-2 maps has a division-free closed form, valid over every field:

    (1/2)X^2(T) = T(p (x) p) - p T(p (x) id) - p T(id (x) p)

`half_square` computes it for the flows and the structure residual.

A MultiMap keeps its field's integer encoding (`linalg.Encoded`): every
insertion f o_i g is one `linalg.einsum` of the operands' encodings,
whose spec names g's output letter in f's slot i and the composite's
inputs in order; sums, differences and negation rescale to a common
scale, and `scale` multiplies the integers and the scale.  So the
bracket engine, the flows and the structure residual decode nothing;
`.tensor` decodes on first use.
"""

from __future__ import annotations

from .errors import CapacityError, InputError
from .linalg import ARITY_CAP, Encoded, _shaped, combine, decoded, einsum, \
    times


class MultiMap:
    """Multilinear map B^m -> B as a dense coefficient tensor, given as a
    tensor of scalars or already encoded."""

    tensor = decoded("_tensor")

    def __init__(self, field, tensor):
        tensor = Encoded.of(field, tensor)
        shape = tensor.shape
        if len(shape) < 2 or len(set(shape)) != 1:
            raise InputError(f"multimap tensor has bad shape {shape}")
        self.arity = len(shape) - 1
        if self.arity > ARITY_CAP:
            raise CapacityError(f"arity {self.arity} exceeds the cap {ARITY_CAP}")
        self.field = field
        self._tensor = tensor
        self.dim = shape[0]

    def __add__(self, other):
        self._compatible(other)
        return MultiMap(self.field, self._tensor + other._tensor)

    def __sub__(self, other):
        self._compatible(other)
        return MultiMap(self.field, self._tensor - other._tensor)

    def __neg__(self):
        return MultiMap(self.field, -self._tensor)

    def scale(self, scalar):
        k = _shaped(self.field, scalar, (),
                    "scale takes one scalar, not a {} tensor")
        t = self._tensor
        return MultiMap(self.field, Encoded(
            self.field, times(t.ints, k.ints.flat[0]), t.scale * k.scale))

    def is_zero_map(self):
        return not self._tensor.differs(None).any()

    def _compatible(self, other):
        if self._tensor.shape != other._tensor.shape:
            raise InputError("multimaps have different arity or dimension")

    def __repr__(self):
        return f"MultiMap(arity={self.arity}, dim={self.dim})"


def circ_i(f: MultiMap, g: MultiMap, i: int) -> MultiMap:
    """Insertion of g into the i-th slot of f (1-based)."""
    m, n = f.arity, g.arity
    if not 1 <= i <= m:
        raise InputError(f"insertion index {i} out of range 1..{m}")
    if m + n - 1 > ARITY_CAP:
        raise CapacityError(
            f"composite arity {m + n - 1} exceeds the cap {ARITY_CAP}")
    if f.dim != g.dim:
        raise InputError("multimaps live on different spaces")
    # g's output x fills f's input slot i
    a, b = "abcd"[:m], "efgh"[:n]
    spec = f"{a[:i - 1]}x{a[i:]}o,{b}x->{a[:i - 1]}{b}{a[i:]}o"
    return MultiMap(f.field, einsum(spec, f._tensor, g._tensor))


def half_square(theta: MultiMap, p: MultiMap):
    """(1/2)X^2(theta) for an arity-2 theta, with the insertions it is
    built from: (half, theta o_1 p, theta o_2 p, theta(p (x) p))."""
    first = circ_i(theta, p, 1)                   # theta(p (x) id)
    second = circ_i(theta, p, 2)                  # theta(id (x) p)
    both = circ_i(first, p, 2)                    # theta(p (x) p)
    half = both - circ_i(p, first, 1) - circ_i(p, second, 1)
    return half, first, second, both


def bar_circ(f: MultiMap, g: MultiMap) -> MultiMap:
    """f obar g = sum_i (-1)^{(i-1)(n-1)} f o_i g."""
    n = g.arity
    return MultiMap(f.field, combine([
        (circ_i(f, g, i)._tensor, (-1) ** ((i - 1) * (n - 1)))
        for i in range(1, f.arity + 1)]))


def g_bracket(f: MultiMap, g: MultiMap) -> MultiMap:
    """Graded commutator [f,g] = f obar g - (-1)^{(m-1)(n-1)} g obar f."""
    fg = bar_circ(f, g)
    gf = bar_circ(g, f)
    if (f.arity - 1) * (g.arity - 1) % 2:
        return fg + gf
    return fg - gf
