"""Checkers, residuals and lifts for Rota-Baxter-type operators:
generalized (GRB), twisted (TRB), classical, Reynolds and
associative-Nijenhuis, plus the associative Yang-Baxter machinery.

The defining identities, for a linear map p: M -> A over an A-bimodule M:

    GRB:  p(m) p(n) = p( p(m).n + m.p(n) )
    TRB:  p(m) p(n) = p( p(m).n + m.p(n) ) + p( phi(p(m), p(n)) )

with phi a Hochschild 2-cocycle.  Reynolds operators are TRB with M = A
and phi = -mu; classical Rota-Baxter operators are GRB with M = A.

An operator is its matrix, (dim M, dim A) in the row convention
image(v) = v @ p, given as nested lists, a numpy array of scalars or an
Encoded tensor: each entry point reads it once with `linalg._shaped`, and
`OperatorInstance.op` is a read-only view of the integers checked.

Each identity is written once (`_identity_sides`, `_aybe_residual`) as
`linalg.einsum` specs and sums of `linalg.Encoded` tensors, whose
leading batch axes ("...") a stack of operators fills: the exhaustive
search (`rbx.search`) runs them on blocks of candidates, and a checker
is the same evaluation on one operator.  The kernel lays out every
product, picks the backend and carries the scales of every step.

The twisted path (the cocycle check of `OperatorInstance`,
`reynolds_as_twisted`) imports `cochains`, the lifts and residuals
import `gerstenhaber`, and `search_operators` imports `search`, where
they run: an untwisted checker loads none of them.
"""

from __future__ import annotations

from .algebra import Algebra, Bimodule, Verdict, canonical_bimodule, extension
from .errors import InputError
from .linalg import Encoded, _shaped, combine, decoded, einsum, embed


class OperatorInstance:
    """A linear map op: M -> A, optionally with a 2-cocycle twist; the
    matrix is kept encoded, and `op` reads its scalars, read-only.

    The cocycle condition is enforced here, not in is_trb: a twisted
    operator only makes sense against a genuine Hochschild cocycle.
    """

    op = decoded("_op")

    def __init__(self, algebra: Algebra, module: Bimodule, op,
                 cocycle=None):
        if module.base.dim != algebra.dim:
            raise InputError("module is not over the instance algebra")
        op = _shaped(algebra.field, op, (module.dim, algebra.dim),
                     f"operator matrix must be {module.dim}x{algebra.dim} "
                     f"(M -> A), got {{}}")
        if cocycle is not None:
            from .cochains import Cochain, is_cocycle
            if cocycle.arity != 2 or cocycle._tensor.shape != \
                    (algebra.dim, algebra.dim, module.dim):
                raise InputError("twist must be a 2-cochain A x A -> M")
            # in C^2(A, M) of this instance, whatever module it came with
            report = is_cocycle(Cochain(algebra, module, cocycle._tensor))
            if not report:
                raise InputError(
                    f"twist is not a Hochschild cocycle; coboundary nonzero "
                    f"at {report.witness}")
        self.algebra = algebra
        self.module = module
        self._op = op
        self.cocycle = cocycle

    @property
    def field(self):
        return self.algebra.field

    @property
    def ext_dim(self):
        return self.algebra.dim + self.module.dim

    def __repr__(self):
        kind = "twisted" if self.cocycle is not None else "plain"
        return (f"OperatorInstance({kind}, A={self.algebra.dim}, "
                f"M={self.module.dim})")


# ---------------------------------------------------------------------------
# lifts to A (+) M

def _lift(inst, block, arity):
    """An arity-`arity` MultiMap on A (+) M, zero but for the encoded
    `block` at the A-inputs, M-output corner (M-inputs, A-output for
    arity 1)."""
    from .gerstenhaber import MultiMap
    dA, d = inst.algebra.dim, inst.ext_dim
    A, M = slice(None, dA), slice(dA, None)
    index = (M, A) if arity == 1 else (A, A, M)
    ints = embed((d,) * (arity + 1), [(index, block.ints)])
    return MultiMap(inst.field, Encoded(inst.field, ints, block.scale))


def lift_operator(inst: OperatorInstance):
    """The lift (a, m) |-> (op(m), 0) as an arity-1 element of
    G(A (+) M); composes to zero with itself."""
    return _lift(inst, inst._op, 1)


def lift_cocycle(inst: OperatorInstance):
    """The twist as an arity-2 map on A (+) M: values in the M-block,
    nonzero only on pairs of A-components."""
    if inst.cocycle is None:
        raise InputError("instance has no twist cochain")
    return _lift(inst, inst.cocycle._tensor, 2)


def extension_mult_map(inst: OperatorInstance):
    """mu-hat (+ phi-hat when the instance is twisted) as an arity-2
    MultiMap on A (+) M."""
    from .gerstenhaber import MultiMap
    twist = inst.cocycle._tensor if inst.cocycle is not None else None
    return MultiMap(inst.field, extension(inst.algebra, inst.module, twist))


def semidirect_mult_map(inst: OperatorInstance):
    """mu-hat alone, the semidirect product of A and M."""
    from .gerstenhaber import MultiMap
    return MultiMap(inst.field, extension(inst.algebra, inst.module))


# ---------------------------------------------------------------------------
# checkers

def _induced_products(op, left, right, twist=None):
    """The NS products a map p: M -> A (rows of the Encoded `op` are the
    p(m_i)) induces on M: m_i > m_j = p(m_i).m_j, m_i < m_j = m_i.p(m_j)
    and, given a twist phi, m_i v m_j = phi(p(m_i), p(m_j)) (None without
    one).  Leading axes of `op` are batch axes."""
    succ = einsum("...ia,ajl->...ijl", op, left)
    prec = einsum("...ja,ial->...ijl", op, right)
    vee = None if twist is None else einsum(
        "...jb,...ibl->...ijl", op, einsum("...ia,abl->...ibl", op, twist))
    return succ, prec, vee


def _identity_sides(kind, op, c, left=None, right=None, twist=None,
                    sign=-1):
    """The two sides p(m)p(n) and p(m > n + m < n + ...) of an operator
    kind's identity over the basis pairs (i, j), for an Encoded operator
    matrix or a [..., rows, cols] stack of them.  `c`, the module actions
    `left`/`right` (None: M = A) and the twist are Encoded; `sign` is
    that of the subtracted terms (+1: every term added)."""
    if left is None:
        left = right = c
    succ, prec, vee = _induced_products(op, left, right, twist)
    # p(m_i) e_b, which is succ for M = A, then p(m_i) p(m_j)
    inner = succ if left is c else einsum("...ia,abl->...ibl", op, c)
    lhs = einsum("...jb,...ibl->...ijl", op, inner)
    terms = [(succ, 1), (prec, 1)]
    if kind == "reynolds":      # the twist -mu: m v n = -p(m)p(n)
        terms.append((lhs, sign))
    elif kind == "nijenhuis":   # N(a)N(b) = N(N(a)b + aN(b) - N(ab))
        terms.append((einsum("ija,...al->...ijl", c, op), sign))
    elif vee is not None:
        terms.append((vee, 1))
    return lhs, einsum("...ija,...al->...ijl", combine(terms), op)


def _check(kind, op, c, left=None, right=None, twist=None):
    """A checker: the search's evaluation of the kind's identity on one
    encoded operator, a stack without batch axes."""
    lhs, rhs = _identity_sides(kind, op, c, left, right, twist)
    return Verdict.compare(lhs, rhs, 2)


def induced_products(inst: OperatorInstance):
    """The NS products of the instance (`_induced_products`), encoded;
    vee is None without a twist."""
    M = inst.module
    twist = None if inst.cocycle is None else inst.cocycle._tensor
    return _induced_products(inst._op, M._left, M._right, twist)


def is_grb(inst: OperatorInstance) -> Verdict:
    """Generalized Rota-Baxter identity on all basis pairs of M."""
    if inst.cocycle is not None:
        raise InputError("instance carries a twist; use is_trb")
    M = inst.module
    return _check("grb", inst._op, inst.algebra._c, M._left, M._right)


def is_trb(inst: OperatorInstance) -> Verdict:
    """Twisted Rota-Baxter identity on all basis pairs of M."""
    if inst.cocycle is None:
        raise InputError("instance has no twist cochain; use is_grb")
    M = inst.module
    return _check("trb", inst._op, inst.algebra._c, M._left, M._right,
                  inst.cocycle._tensor)


def is_classical_rb(algebra: Algebra, op) -> Verdict:
    """Classical weight-zero Rota-Baxter identity: the M = A case."""
    return is_grb(OperatorInstance(algebra, canonical_bimodule(algebra), op))


def is_reynolds(algebra: Algebra, op) -> Verdict:
    """R(a)R(b) = R(R(a)b + aR(b)) - R(R(a)R(b)) on basis pairs: the
    twisted identity with M = A and phi = -mu."""
    return _check("reynolds", _endomorphism(algebra, op), algebra._c)


def is_nijenhuis(algebra: Algebra, op) -> Verdict:
    """N(a)N(b) = N(N(a)b + aN(b)) - N(N(ab)) on basis pairs."""
    return _check("nijenhuis", _endomorphism(algebra, op), algebra._c)


def _endomorphism(algebra, m):
    return _shaped(algebra.field, m, (algebra.dim,) * 2,
                   "operator must be an endomorphism of the algebra")


def reynolds_as_twisted(algebra: Algebra, op) -> OperatorInstance:
    """A Reynolds candidate viewed as a twisted operator: M = A, twist -mu."""
    from .cochains import Cochain
    module = canonical_bimodule(algebra)
    phi = Cochain(algebra, module, -algebra._c)
    return OperatorInstance(algebra, module, op, phi)


# ---------------------------------------------------------------------------
# structure residuals from the division-free closed forms

def structure_residual(inst: OperatorInstance):
    """(1/2)[p^, p^]_mu^  (+ (1/6)[[[phi^,p^],p^],p^] when twisted);
    the zero map exactly when the instance satisfies its identity.
    Evaluated as the flow's half term (1/2)X^2(mu^), minus
    `twist_insertion` when twisted: insertions with no division, over
    every field; the flow of mu^ + phi^ minus its truncation (`flows`).
    """
    from .gerstenhaber import half_square
    residual = half_square(semidirect_mult_map(inst), lift_operator(inst))[0]
    if inst.cocycle is not None:
        residual = residual - twist_insertion(inst)
    return residual


def twist_insertion(inst: OperatorInstance):
    """p^ o phi^ o (p^ (x) p^): the intermediate of the twisted structure
    equation, equal to -(1/6)[[[phi^,p^],p^],p^]."""
    from .gerstenhaber import circ_i
    p_hat = lift_operator(inst)
    phi_hat = lift_cocycle(inst)
    both = circ_i(circ_i(phi_hat, p_hat, 1), p_hat, 2)
    return circ_i(p_hat, both, 1)


# ---------------------------------------------------------------------------
# associative Yang-Baxter equation

def aybe_residual(algebra: Algebra, r):
    """Residual tensor of the associative Yang-Baxter equation for
    r in A (x) A, as an element of A (x) A (x) A:

        sum a_i a_j (x) b^j (x) b^i  -  sum a_i (x) b^i a_j (x) b^j
            + sum a_j (x) a_i (x) b^i b^j
    """
    return aybe_encoded(algebra, r).objects


def aybe_encoded(algebra, r) -> Encoded:
    """`aybe_residual` in the integer encoding."""
    d = algebra.dim
    r = _shaped(algebra.field, r, (d, d),
                f"r must be a {d}x{d} tensor in A (x) A")
    return _aybe_residual(algebra._c, r)


def _aybe_residual(c, r, sign=-1):
    """The AYBE residual as a [..., u, v, w] tensor for r, or a [..., d, d]
    stack of them, over the structure constants c, all Encoded; `sign` is
    that of the subtracted term (+1: every term added)."""
    # with r = sum r[s, t] e_s (x) e_t:
    # t1 = sum r[s,w] r[t,v] c[s,t,u], t2 = sum r[u,t] r[s,w] c[t,s,v],
    # t3 = sum r[v,s] r[u,t] c[s,t,w]
    right = einsum("...ut,tsv->...uvs", r, c)
    t1 = einsum("...tv,...utw->...uvw", r, einsum("stu,...sw->...utw", c, r))
    t2 = einsum("...uvs,...sw->...uvw", right, r)
    t3 = einsum("...us,...vws->...uvw", r, right)
    return combine([(t1, 1), (t2, sign), (t3, 1)])


# ---------------------------------------------------------------------------
# exhaustive search over prime fields

def search_operators(algebra: Algebra, module: Bimodule | None, kind: str,
                     cocycle=None, budget: int | None = None):
    """Enumerate all candidates of the given kind over a prime field, in
    lexicographic order of the flattened matrix entries, and return those
    passing the kind's checker, as tensors of scalars: the entries of
    `search.search_rows`, decoded."""
    from . import search
    return list(search.search_rows(algebra, module, kind, cocycle,
                                   budget).objects)
