"""Independent brute-force evaluators used as oracles by the test suite.

Everything here works on plain Python lists with nested loops over basis
tuples and shares no code with the library's tensordot-based engine: it
calls no rbx function or method, and of rbx's objects reads only their
tensors (`.c`, `.left`, `.right`), `.dim`, `.field` and the field's
scalars (`zero`, `one`, `char`).  An agreement between the two is
therefore meaningful evidence.
"""

import string
from fractions import Fraction
from itertools import product

import numpy as np


class FnMap:
    """A multilinear map given by its values on basis tuples.

    `fn(idx_tuple)` returns the output coordinate list.  Compositions are
    expanded multilinearly with explicit loops.
    """

    def __init__(self, arity, dim, field, fn):
        self.arity = arity
        self.dim = dim
        self.field = field
        self.fn = fn

    @classmethod
    def from_tensor(cls, field, tensor):
        arity = tensor.ndim - 1
        dim = tensor.shape[0]

        def fn(idx):
            return [tensor[idx + (k,)] for k in range(dim)]

        return cls(arity, dim, field, fn)

    def on_vector_slot(self, idx_before, vec, idx_after):
        """Value when one input slot holds an arbitrary coordinate vector
        and the others hold basis vectors."""
        out = [self.field.zero] * self.dim
        for k in range(self.dim):
            if not vec[k]:
                continue
            val = self.fn(idx_before + (k,) + idx_after)
            for t in range(self.dim):
                out[t] = out[t] + vec[k] * val[t]
        return out


def oracle_circ(f: FnMap, g: FnMap, i: int) -> FnMap:
    """(f o_i g) on basis tuples, 1-based i."""
    m, n = f.arity, g.arity

    def fn(idx):
        before = idx[: i - 1]
        inner = idx[i - 1: i - 1 + n]
        after = idx[i - 1 + n:]
        return f.on_vector_slot(before, g.fn(inner), after)

    return FnMap(m + n - 1, f.dim, f.field, fn)


def oracle_bar(f: FnMap, g: FnMap) -> FnMap:
    n = g.arity
    parts = [(oracle_circ(f, g, i), (-1) ** ((i - 1) * (n - 1)))
             for i in range(1, f.arity + 1)]

    def fn(idx):
        out = [f.field.zero] * f.dim
        for part, sign in parts:
            val = part.fn(idx)
            for t in range(f.dim):
                out[t] = out[t] + val[t] if sign > 0 else out[t] - val[t]
        return out

    return FnMap(f.arity + g.arity - 1, f.dim, f.field, fn)


def oracle_bracket(f: FnMap, g: FnMap) -> FnMap:
    fg = oracle_bar(f, g)
    gf = oracle_bar(g, f)
    sign = (-1) ** ((f.arity - 1) * (g.arity - 1))

    def fn(idx):
        a = fg.fn(idx)
        b = gf.fn(idx)
        return [x + y if sign < 0 else x - y for x, y in zip(a, b)]

    return FnMap(fg.arity, f.dim, f.field, fn)


def agrees_with_tensor(fnmap: FnMap, tensor) -> bool:
    """Compare a FnMap with an engine tensor on every basis tuple."""
    dim = fnmap.dim
    if tensor.shape != (dim,) * (fnmap.arity + 1):
        return False
    for idx in product(range(dim), repeat=fnmap.arity):
        val = fnmap.fn(idx)
        for k in range(dim):
            if val[k] != tensor[idx + (k,)]:
                return False
    return True


# ---------------------------------------------------------------------------
# vectors and tensors on the scalars' own arithmetic
#
# Vectors are lists of coordinates.  A product or an action with a basis
# vector in one slot is a read of the tensor (e_i e_j is c[i, j], and
# e_a . m_j is left[a, j]); these helpers cover the other slots.

def zeros(shape, field):
    """An object array of `shape` filled with the field's zero."""
    arr = np.empty(shape, dtype=object)
    arr[...] = field.zero
    return arr


def identity(n, field):
    """The n x n identity matrix of the field's scalars."""
    arr = zeros((n, n), field)
    for i in range(n):
        arr[i, i] = field.one
    return arr


def elements(field):
    """Every scalar of a prime field, in canonical order 0, 1, ..., p-1."""
    assert field.char, "Q is not enumerable"
    return [field.zero + v for v in range(field.char)]


def basis(dim, i, field):
    """The i-th coordinate vector of a dim-dimensional space."""
    return [field.one if s == i else field.zero for s in range(dim)]


def vec_mat(vec, mat, field):
    """Row vector times matrix, as a list."""
    return [sum((vec[a] * mat[a][b] for a in range(len(vec))), start=field.zero)
            for b in range(len(mat[0]))]


def bilinear(t, u, v, field):
    """sum_ab u[a] v[b] t[a][b][:] for an (n, m, k) tensor t."""
    n, m, k = t.shape
    return [sum((u[a] * v[b] * t[a, b, l] for a in range(n) for b in range(m)),
                start=field.zero) for l in range(k)]


def multilinear(t, vectors, field):
    """t(v_1, ..., v_n) for a tensor t of n input axes and one output
    axis: the sum over index tuples of the coordinate products times t."""
    out = [field.zero] * t.shape[-1]
    support = ([i for i, x in enumerate(v) if x] for v in vectors)
    for idx in product(*support):
        coeff = field.one
        for v, i in zip(vectors, idx):
            coeff = coeff * v[i]
        for l in range(len(out)):
            out[l] = out[l] + coeff * t[idx + (l,)]
    return out


def add(*vecs):
    return [sum(col[1:], start=col[0]) for col in zip(*vecs)]


def neg(vec):
    return [-x for x in vec]


def induced_product(p, left, right, i, j, field):
    """m_i . m_j = p(m_i).m_j + m_i.p(m_j) for the matrix p of an operator
    M -> A (row i is p(m_i)) and the actions `left`, `right` of A on M."""
    return add(vec_mat(p[i], left[:, j], field),
               vec_mat(p[j], right[i], field))


def tensors_equal(a, b):
    """Equal shapes and equal entries, compared one scalar at a time."""
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


# ---------------------------------------------------------------------------
# random exact data

def random_scalar(field, rng, small=True):
    if field.char == 0:
        num = rng.randint(-3, 3)
        den = rng.randint(1, 3) if small else rng.randint(1, 9)
        return Fraction(num, den)
    return field.zero + rng.randint(0, field.char - 1)


def random_tensor(shape, field, rng):
    arr = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        arr[idx] = random_scalar(field, rng)
    return arr


def aybe_oracle(algebra, r):
    """Triple-loop expansion of the Yang-Baxter residual from the formal
    sum representation r = sum r[s,t] e_s (x) e_t; independent of the
    library's coordinate formula."""
    d, c, field = algebra.dim, algebra.c, algebra.field
    out = [[[field.zero] * d for _ in range(d)] for _ in range(d)]
    pairs = [(s, t) for s in range(d) for t in range(d) if r[s, t]]
    for (s, t) in pairs:           # index i: a_i = e_s, b^i = e_t
        for (u, v) in pairs:       # index j: a_j = e_u, b^j = e_v
            coeff = r[s, t] * r[u, v]
            prod = c[s, u]
            for w in range(d):
                if prod[w]:
                    out[w][v][t] = out[w][v][t] + coeff * prod[w]
            prod = c[t, u]
            for w in range(d):
                if prod[w]:
                    out[s][w][v] = out[s][w][v] - coeff * prod[w]
            prod = c[t, v]
            for w in range(d):
                if prod[w]:
                    out[u][s][w] = out[u][s][w] + coeff * prod[w]
    return out


# ---------------------------------------------------------------------------
# exact elimination on the scalars' own arithmetic

def oracle_row_reduce(matrix):
    """Reduced row echelon form by textbook Gauss-Jordan elimination, one
    scalar division per entry: (rref as a list of rows, pivot columns)."""
    n_rows, n_cols = matrix.shape
    m = [list(row) for row in matrix]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


# ---------------------------------------------------------------------------
# identity checkers, one basis tuple at a time
#
# Each evaluator returns None when the identity holds, else the
# lexicographically first failing index tuple with both sides there.

def oracle_operator(field, c, left, right, p, phi=None):
    """GRB (phi None) or TRB: p(m)p(n) = p(p(m).n + m.p(n) [+ phi(p(m), p(n))])
    on basis pairs (i, j) of M; sides are vectors in A."""
    dM = p.shape[0]
    for i in range(dM):
        for j in range(dM):
            pm, pn = list(p[i]), list(p[j])
            m = basis(dM, i, field)
            n = basis(dM, j, field)
            lhs = bilinear(c, pm, pn, field)
            inner = add(bilinear(left, pm, n, field),
                        bilinear(right, m, pn, field))
            if phi is not None:
                inner = add(inner, bilinear(phi, pm, pn, field))
            rhs = vec_mat(inner, p, field)
            if lhs != rhs:
                return (i, j), lhs, rhs
    return None


def oracle_accepts(kind, A, M, phi, p):
    """The nested-loop verdict on one search candidate `p` of `kind` on
    the algebra A, the bimodule M (None: A itself) and the twist phi."""
    field = A.field
    if kind == "aybe":
        return not any(x for plane in aybe_oracle(A, p) for row in plane
                       for x in row)
    if kind == "reynolds":
        return oracle_reynolds(field, A.c, p) is None
    if kind == "nijenhuis":
        return oracle_nijenhuis(field, A.c, p) is None
    left, right = (A.c, A.c) if M is None else (M.left, M.right)
    return oracle_operator(field, A.c, left, right, p,
                           None if phi is None else phi.tensor) is None


def oracle_graph_check(field, c, left, right, p, phi=None):
    """Is the graph {(p(m), m)} of p: M -> A a subalgebra of A (+)_phi M,
    where (a, m)(b, n) = (ab, a.n + m.b [+ phi(a, b)])?  On basis pairs
    (i, j) of the graph: its product, by basis loops, and that product's
    residual after the reference elimination of the graph's rows; the
    pair escapes the graph when the residual is nonzero.  Sides are
    vectors in A (+) M."""
    dM = p.shape[0]
    graph = [list(p[i]) + basis(dM, i, field) for i in range(dM)]
    rref, pivots = oracle_row_reduce(np.array(graph, dtype=object))
    for i in range(dM):
        for j in range(dM):
            pm, pn = list(p[i]), list(p[j])
            m = basis(dM, i, field)
            n = basis(dM, j, field)
            inner = add(bilinear(left, pm, n, field),
                        bilinear(right, m, pn, field))
            if phi is not None:
                inner = add(inner, bilinear(phi, pm, pn, field))
            prod = bilinear(c, pm, pn, field) + inner     # A, then M
            residual = prod
            for row, col in zip(rref, pivots):
                residual = [x - prod[col] * y
                            for x, y in zip(residual, row)]
            if any(residual):
                return (i, j), prod, residual
    return None


def oracle_reynolds(field, c, r):
    """R(a)R(b) = R(R(a)b + aR(b)) - R(R(a)R(b)) on basis pairs."""
    d = r.shape[0]
    for i in range(d):
        for j in range(d):
            a = basis(d, i, field)
            b = basis(d, j, field)
            ra, rb = list(r[i]), list(r[j])
            lhs = bilinear(c, ra, rb, field)
            rhs = add(vec_mat(add(bilinear(c, ra, b, field),
                                  bilinear(c, a, rb, field)), r, field),
                      neg(vec_mat(lhs, r, field)))
            if lhs != rhs:
                return (i, j), lhs, rhs
    return None


def oracle_nijenhuis(field, c, n):
    """N(a)N(b) = N(N(a)b + aN(b)) - N(N(ab)) on basis pairs."""
    d = n.shape[0]
    for i in range(d):
        for j in range(d):
            a = basis(d, i, field)
            b = basis(d, j, field)
            na, nb = list(n[i]), list(n[j])
            lhs = bilinear(c, na, nb, field)
            ab = bilinear(c, a, b, field)
            rhs = add(vec_mat(add(bilinear(c, na, b, field),
                                  bilinear(c, a, nb, field)), n, field),
                      neg(vec_mat(vec_mat(ab, n, field), n, field)))
            if lhs != rhs:
                return (i, j), lhs, rhs
    return None


def oracle_assoc(field, c):
    """(e_i e_j) e_k = e_i (e_j e_k), coefficient l; scalar sides."""
    d = c.shape[0]
    for i, j, k, l in product(range(d), repeat=4):
        lhs = sum((c[i, j, m] * c[m, k, l] for m in range(d)), start=field.zero)
        rhs = sum((c[j, k, m] * c[i, m, l] for m in range(d)), start=field.zero)
        if lhs != rhs:
            return (i, j, k, l), lhs, rhs
    return None


BIMODULE_AXIOMS = ("(ab).m != a.(b.m)", "m.(ab) != (m.a).b",
                   "(a.m).b != a.(m.b)")


def oracle_bimodule(field, c, left, right):
    """The three bimodule axioms on (i, j, k), axiom by axiom, then
    coefficient l; returns ((axiom, i, j, k, l), detail)."""
    dA, dM = c.shape[0], left.shape[1]
    for i, j, k in product(range(dA), range(dA), range(dM)):
        for axiom in range(3):
            for l in range(dM):
                if axiom == 0:
                    lhs = sum((c[i, j, s] * left[s, k, l] for s in range(dA)),
                              start=field.zero)
                    rhs = sum((left[j, k, t] * left[i, t, l] for t in range(dM)),
                              start=field.zero)
                elif axiom == 1:
                    lhs = sum((c[i, j, s] * right[k, s, l] for s in range(dA)),
                              start=field.zero)
                    rhs = sum((right[k, i, t] * right[t, j, l] for t in range(dM)),
                              start=field.zero)
                else:
                    lhs = sum((left[i, k, t] * right[t, j, l] for t in range(dM)),
                              start=field.zero)
                    rhs = sum((right[k, j, t] * left[i, t, l] for t in range(dM)),
                              start=field.zero)
                if lhs != rhs:
                    return (axiom, i, j, k, l), BIMODULE_AXIOMS[axiom]
    return None


def oracle_dendriform(field, succ, prec, vee=None):
    """Every violated dendriform (vee None: d1-d3) or NS (t1-t4) axiom with
    its first failing triple: a list of (name, (i, j, k), lhs, rhs) in
    axiom order; t4 is a residual against zero, with rhs None."""
    d = succ.shape[0]

    def prod(t, x, y):
        return bilinear(t, x, y, field)

    def total(x, y):
        parts = [prod(succ, x, y), prod(prec, x, y)]
        if vee is not None:
            parts.append(prod(vee, x, y))
        return add(*parts)

    names = ("d1", "d2", "d3") if vee is None else ("t1", "t2", "t3", "t4")
    found = {}
    for i, j, k in product(range(d), repeat=3):
        x, y, z = (basis(d, t, field) for t in (i, j, k))
        sides = [
            (prod(prec, prod(prec, x, y), z), prod(prec, x, total(y, z))),
            (prod(prec, prod(succ, x, y), z), prod(succ, x, prod(prec, y, z))),
            (prod(succ, x, prod(succ, y, z)), prod(succ, total(x, y), z)),
        ]
        if vee is not None:
            resid = add(prod(succ, x, prod(vee, y, z)),
                        neg(prod(vee, total(x, y), z)),
                        prod(vee, x, total(y, z)),
                        neg(prod(prec, prod(vee, x, y), z)))
            sides.append((resid, None))
        for name, (lhs, rhs) in zip(names, sides):
            bad = any(lhs) if rhs is None else lhs != rhs
            if bad and name not in found:
                found[name] = (name, (i, j, k), lhs, rhs)
    return [found[name] for name in names if name in found]


def in_spelling(text, fraction=True):
    """Whether `text` is in the one spelling of a number rbx reads: an
    optional sign and ASCII digits, then, when `fraction`, optionally '/'
    and ASCII digits; checked by hand, with no regular expression."""
    num, slash, den = text.partition("/") if fraction else (text, "", "")
    num = num[1:] if num[:1] in ("+", "-") else num
    return all(part and set(part) <= set(string.digits)
               for part in ([num, den] if slash else [num]))


def long_digit_run(text):
    """The digits of `text`, stripped and without one sign, when they are
    decimal digits of any script past int's digit limit, else None."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    if digits.isdecimal():
        try:
            int(digits)
        except ValueError:
            return digits
    return None


def named(text):
    """How a refusal names `text`, by hand: a digit run past int's limit
    by its count, a fraction of two digit runs with one past it by its
    length, anything else by its repr."""
    digits = long_digit_run(text)
    if digits:
        return f"one of {len(digits)} digits"
    body = text.strip()
    body = body[1:] if body[:1] in ("+", "-") else body
    num, slash, den = body.partition("/")
    if slash and num.isdecimal() and den.isdecimal() and (
            long_digit_run(num) or long_digit_run(den)):
        return f"a fraction of {len(text)} characters"
    return repr(text)
