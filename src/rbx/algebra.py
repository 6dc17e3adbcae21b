"""Finite-dimensional associative algebras and bimodules: the
associativity and bimodule checks, the canonical bimodule, maps that
intertwine actions (`intertwining`), and the product tensor of an
abelian extension A (+)_phi M (`extension`).

An algebra is a dim x dim x dim structure-constant tensor c with
e_i * e_j = sum_k c[i,j,k] e_k; a bimodule over it carries left/right
action tensors.  Each tensor is encoded once, at construction, in its
field's integer encoding (`linalg.Encoded`), and every identity is
decided on those integers; the public `.c`, `.left` and `.right` are
object-dtype tensors of exact scalars, decoded (and numpy imported) on
first read.  Algebras are validated on construction, so an Algebra value
is always genuinely associative.
"""

from __future__ import annotations

from .errors import InputError
from .linalg import (Encoded, _shaped, common, decoded, einsum, embed, eye,
                     first_difference, first_nonzero_index, row_reduce)


class Verdict:
    """Outcome of an identity check.

    `witness` is the lexicographically first failing index tuple;
    `lhs`/`rhs` hold both evaluated sides at the witness.  Truthy iff the
    check passed.
    """

    def __init__(self, ok, witness=None, lhs=None, rhs=None, detail="",
                 failures=()):
        self.ok = ok
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        self.detail = detail
        self.failures = failures

    def __bool__(self):
        return self.ok

    @classmethod
    def compare(cls, lhs, rhs, k, detail=""):
        """Verdict on lhs == rhs for Encoded tensors, decided on their
        integers, with the first differing index over the leading k axes
        as the witness and the two sides decoded there alone.  rhs=None
        compares a residual lhs with zero and reports no rhs."""
        idx = first_nonzero_index(lhs.differs(rhs), k)
        if idx is None:
            return cls(True)
        return cls(False, idx, lhs=lhs.at(idx),
                   rhs=None if rhs is None else rhs.at(idx), detail=detail)


def assoc_check(c: Encoded) -> Verdict:
    """Associativity of an `Encoded` structure-constant tensor on all
    basis triples.

    Reports the first failing (i, j, k, l) in lexicographic order, with
    the l-th coefficient of (e_i e_j) e_k and e_i (e_j e_k).
    """
    if len(c.shape) != 3 or len(set(c.shape)) != 1:
        raise InputError(f"structure constants must be cubic, got shape {c.shape}")
    left = einsum("ijm,mkl->ijkl", c, c)            # (e_i e_j) e_k
    right = einsum("iml,jkm->ijkl", c, c)           # e_i (e_j e_k)
    return Verdict.compare(left, right, 4, detail="associativity fails")


class Algebra:
    """Associative algebra by structure constants; validated on creation."""

    c = decoded("_c")

    def __init__(self, field, c):
        c = Encoded.of(field, c)
        report = assoc_check(c)
        if not report:
            i, j, k, l = report.witness
            raise InputError(
                f"structure constants are not associative at "
                f"(i,j,k,l)=({i},{j},{k},{l}): {report.lhs} != {report.rhs}")
        self.field = field
        self._c = c
        self.dim = c.shape[0]

    def unit(self):
        """Coordinates of the unit element, or None if non-unital."""
        unit = self._unit()
        return None if unit is None else unit.objects

    def _unit(self):
        """`unit`, encoded."""
        d, c = self.dim, self._c
        # u e_j = e_j and e_j u = e_j, one row per (j, k) and one per
        # (i, k), with the identity over c's scale on the right
        one = eye(d, c.scale).reshape(d * d)
        top, bottom, lhs = slice(None, d * d), slice(d * d, None), slice(None, d)
        rows = embed((2 * d * d, d + 1), [
            ((top, lhs), c.ints.transpose(1, 2, 0).reshape(d * d, d)),
            ((bottom, lhs), c.ints.transpose(0, 2, 1).reshape(d * d, d)),
            ((top, d), one), ((bottom, d), one)])
        rref, pivots = row_reduce(Encoded(self.field, rows, c.scale))
        if d in pivots:
            return None
        sol = embed((d,), [((pivots,), rref.ints[:len(pivots), d])])
        return Encoded(self.field, sol, rref.scale)

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field.name})"


class Bimodule:
    """Bimodule over an Algebra: left (dA,dM,dM) and right (dM,dA,dM) actions.

    Shape checks happen here; the axioms live in `bimodule_check` so that
    deliberately broken modules can be built for testing (pass check=False).
    """

    left = decoded("_left")
    right = decoded("_right")

    def __init__(self, base: Algebra, left, right, check=True):
        left = Encoded.of(base.field, left)
        right = Encoded.of(base.field, right)
        dA = base.dim
        if len(left.shape) != 3 or left.shape[0] != dA or left.shape[1] != left.shape[2]:
            raise InputError(f"left action tensor has bad shape {left.shape}")
        dM = left.shape[1]
        if right.shape != (dM, dA, dM):
            raise InputError(f"right action tensor has bad shape {right.shape}")
        self.base = base
        self._left = left
        self._right = right
        self.dim = dM
        self.field = base.field
        if check:
            report = bimodule_check(base, self)
            if not report:
                raise InputError(f"bimodule axioms fail: {report.detail} at {report.witness}")

    def __repr__(self):
        return f"Bimodule(dim={self.dim}, over dim={self.base.dim})"


def canonical_bimodule(algebra: Algebra) -> Bimodule:
    """A acting on itself by its own product."""
    return Bimodule(algebra, algebra._c, algebra._c, check=False)


def bimodule_check(algebra: Algebra, module: Bimodule) -> Verdict:
    """The three bimodule axioms on all basis triples.

    Axioms: (ab).m = a.(b.m); m.(ab) = (m.a).b; (a.m).b = a.(m.b).
    Witness is (axiom_index, i, j, k, l) for the first failure, ordered
    by (i, j, k) first and axiom second.
    """
    if module.base is not algebra and module.base.dim != algebra.dim:
        raise InputError("module is not over the given algebra")
    c, L, R = algebra._c, module._left, module._right
    # a = e_i, b = e_j, m = m_k, coefficient l
    lhs = [einsum("ijx,xkl->ijkl", c, L), einsum("ijx,kxl->ijkl", c, R),
           einsum("ikx,xjl->ijkl", L, R)]
    rhs = [einsum("jkx,ixl->ijkl", L, L), einsum("kix,xjl->ijkl", R, R),
           einsum("kjx,ixl->ijkl", R, L)]
    bad = first_difference(zip(lhs, rhs), 3)
    if bad is None:
        return Verdict(True)
    i, j, k, axiom, l = bad
    return Verdict(False, (axiom, i, j, k, l), detail=_BIMODULE_AXIOMS[axiom])


_BIMODULE_AXIOMS = ("(ab).m != a.(b.m)", "m.(ab) != (m.a).b",
                    "(a.m).b != a.(m.b)")


def intertwining(f0, f1, src: Bimodule, dst: Bimodule):
    """The first (i, j, action) with a = e_i and m = m_j at which the
    Encoded f1: src -> dst fails f1(a.m) = f0(a).f1(m) (action 0) or
    f1(m.a) = f1(m).f0(a) (action 1) along f0: A -> B, or None."""
    left = einsum("ia,abl->ibl", f0, dst._left)
    right = einsum("ia,bal->bil", f0, dst._right)
    sides = [(einsum("ijx,xl->ijl", src._left, f1),
              einsum("jb,ibl->ijl", f1, left)),
             (einsum("jix,xl->ijl", src._right, f1),
              einsum("jb,bil->ijl", f1, right))]
    return first_difference(sides, 2)


def extension(algebra: Algebra, module: Bimodule, twist=None) -> Encoded:
    """Product tensor on A (+) M, (a,m)*(b,n) = (ab, a.n + m.b [+ phi(a,b)]),
    with the A-block first, over the common scale of the blocks; `twist`
    is a 2-cochain tensor phi, encoded or not.

    No associativity gate, so callers can probe non-cocycle twists;
    `Algebra(field, extension(A, M, phi))` is the extension A (+)_phi M,
    associative iff phi is a cocycle.
    """
    dA, dM = algebra.dim, module.dim
    blocks = [algebra._c, module._left, module._right]
    if twist is not None:
        blocks.append(_shaped(algebra.field, twist, (dA, dA, dM),
                              f"2-cochain tensor has shape {{}}, "
                              f"expected {(dA, dA, dM)}"))
    ints, scale = common(*blocks)
    A, M = slice(None, dA), slice(dA, None)
    places = [(A, A, A), (A, M, M), (M, A, M), (A, A, M)]
    return Encoded(algebra.field,
                   embed((dA + dM,) * 3, list(zip(places, ints))), scale)
