"""Graded space of multilinear maps on a coordinate space B with the
Gerstenhaber calculus: insertion compositions, the bar-circle product,
the graded-commutator bracket, derived brackets, and the graded-Jacobi
residual.

A MultiMap of arity m on a d-dimensional space is a tensor of shape
(d,)*m + (d,); the last axis indexes the output.  The bracket of maps of
arities m and n has arity m+n-1, so the arity cap 4 bounds everything in
scope.

Conventions (degree of an arity-m map is m):

    (f o_i g)(b_1..b_{m+n-1}) = f(b_1,..,b_{i-1}, g(b_i..b_{i+n-1}), ..)
    f obar g  = sum_{i=1}^{m} (-1)^{(i-1)(n-1)} f o_i g
    [f, g]    = f obar g - (-1)^{(m-1)(n-1)} g obar f
    [f, g]_S  = [[S, f], g]          (derived bracket, for [S,S]=0)

For an arity-1 p with p o p = 0 and X = [., p], the half term of X^2 on
arity-2 maps has a division-free closed form, valid over every field:

    (1/2)X^2(T) = T(p (x) p) - p T(p (x) id) - p T(id (x) p)

`half_square` computes it for the flows and the structure residual.

A MultiMap keeps its field's integer encoding (`linalg.Encoded`): every
insertion is one exact integer contraction of the operands' encodings,
and sums, differences and negation rescale to a common scale, so the
bracket engine, the flows and the structure residual decode nothing;
`.tensor` decodes on first use.
"""

from __future__ import annotations

from .errors import CapacityError, InputError
from .linalg import Encoded, combine, decoded

ARITY_CAP = 4


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
        return MultiMap(self.field, self._tensor.dot(
            Encoded.of(self.field, scalar), ([], [])))

    def is_zero_map(self):
        return not self._tensor.differs(None).any()

    def _compatible(self, other):
        if self._tensor.shape != other._tensor.shape:
            raise InputError("multimaps have different arity or dimension")

    def __repr__(self):
        return f"MultiMap(arity={self.arity}, dim={self.dim})"


def from_algebra(algebra):
    """The multiplication of an algebra as an arity-2 MultiMap."""
    return MultiMap(algebra.field, algebra._c)


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
    # contract g's output axis into f's input slot i-1
    t = f._tensor.dot(g._tensor, ([i - 1], [n]))
    # axes now: f-inputs before slot, f-inputs after slot, f-output, g-inputs
    perm = (list(range(0, i - 1))
            + list(range(m, m + n))
            + list(range(i - 1, m - 1))
            + [m - 1])
    return MultiMap(f.field, t.transpose(*perm))


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


def derived_bracket(f: MultiMap, g: MultiMap, square: MultiMap) -> MultiMap:
    """[f, g]_S = [[S, f], g] for an arity-2 S with [S,S] = 0."""
    if square.arity != 2:
        raise InputError("derived bracket needs an arity-2 structure map")
    if not g_bracket(square, square).is_zero_map():
        raise InputError("structure map is not square-zero: [S,S] != 0")
    return g_bracket(g_bracket(square, f), g)


def jacobi_residual(f: MultiMap, g: MultiMap, h: MultiMap) -> MultiMap:
    """Signed three-term sum of the graded Jacobi identity; identically
    zero for a genuine graded Lie bracket:

    (-1)^{(m-1)(l-1)}[[f,g],h] + (-1)^{(l-1)(n-1)}[[h,f],g]
        + (-1)^{(n-1)(m-1)}[[g,h],f]
    """
    m, n, l = f.arity, g.arity, h.arity
    return MultiMap(f.field, combine([
        (g_bracket(g_bracket(f, g), h)._tensor, (-1) ** ((m - 1) * (l - 1))),
        (g_bracket(g_bracket(h, f), g)._tensor, (-1) ** ((l - 1) * (n - 1))),
        (g_bracket(g_bracket(g, h), f)._tensor, (-1) ** ((n - 1) * (m - 1))),
    ]))
