"""Checkers, residuals, lifts and exhaustive searches for Rota-Baxter-type
operators: generalized (GRB), twisted (TRB), classical, Reynolds and
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
search runs them on blocks of candidates, and a checker is the same
evaluation on one operator.  The kernel lays out every product, picks
the backend and carries the scales of every step.  The search
(`search_rows`) walks a tree of partial candidates: it assigns the
flattened entries depth-first, in lexicographic order, and drops a
prefix as soon as a residual entry that the assigned entries decide is
nonzero mod p (backtracking with forward checking).  Which entries a
residual entry reads comes from the same contractions, run once on the
0/1 nonzero patterns of the structure tensors with every term added
(`_decided`); no identity is written twice.  It builds its blocks on
the pure kernel when the dense work of its whole box is at most
`linalg.PURE_WORK`, and on int64 numpy otherwise, and returns the
passing candidates as one Encoded stack.

The twisted path (the cocycle check of `OperatorInstance`,
`reynolds_as_twisted`) imports `cochains`, and the lifts and residuals
import `gerstenhaber`, where they run: an untwisted checker or search
loads neither.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice, product

from .algebra import Algebra, Bimodule, Verdict, canonical_bimodule, extension
from .errors import CapacityError, CharacteristicError, InputError
from . import linalg
from .fields import QQ
from .linalg import Encoded, IntTensor, _np, _shaped, combine, decoded, \
    einsum, embed, to_pure

SEARCH_BUDGET = 2 ** 20


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
    `twist_insertion` when twisted; the guards for 1/2 and 1/6 are kept.
    """
    from .gerstenhaber import half_square
    field = inst.field
    if inst.cocycle is not None and field.char in (2, 3):
        raise CharacteristicError(
            "the twisted structure residual needs 1/6; characteristic "
            f"{field.char} is refused")
    if field.char == 2:
        raise CharacteristicError(
            "the structure residual needs 1/2; characteristic 2 is refused")
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

_CHECKERS = ("grb", "rb", "trb", "reynolds", "nijenhuis", "aybe")

SEARCH_BLOCK = 4096            # candidates decided per contraction, at most
BLOCK_ENTRIES = 2 ** 20        # entries of a block's largest tensor, at most,
                               # unless one candidate's alone is larger


def search_operators(algebra: Algebra, module: Bimodule | None, kind: str,
                     cocycle=None, budget: int | None = None):
    """Enumerate all candidates of the given kind over a prime field, in
    lexicographic order of the flattened matrix entries, and return those
    passing the kind's checker, as tensors of scalars: the entries of
    `search_rows`, decoded."""
    return list(search_rows(algebra, module, kind, cocycle, budget).objects)


def _candidate_work(kind, dim, rows, shared, twisted):
    """The dense work (as `linalg.einsum` counts it) of one
    candidate's products in `_identity_sides` or `_aybe_residual`, for
    an algebra of dimension `dim` and candidates with `rows` rows;
    `shared`: the left action is the product, so p(m_i) p(m_j) reuses
    the induced product's first step."""
    if kind == "aybe":
        return 5 * dim ** 4
    work = 3 * dim * rows ** 3 + (rows * dim) ** 2 \
        + (0 if shared else rows * dim ** 3)
    if twisted:
        work += (rows * dim) ** 2 + dim * rows ** 3
    return work + (dim ** 4 if kind == "nijenhuis" else 0)


def _residual(kind, block, c, actions, twist, sign=-1):
    """The kind's residual on an Encoded stack of candidates: lhs - rhs
    of `_identity_sides`, or `_aybe_residual`; with sign +1, every term
    of the identity is added instead."""
    if kind == "aybe":
        return _aybe_residual(c, block, sign)
    lhs, rhs = _identity_sides(kind, block, c, *actions, twist=twist,
                               sign=sign)
    return combine([(lhs, 1), (rhs, sign)])


def _decided(kind, shape, c, actions, twist):
    """For each residual entry, in C order, the number t of leading
    candidate entries (in flattened order) that decide it: its polynomial
    reads no later entry, so it takes its final value when they are set
    and the rest are 0 (t = 0: it is 0).  Read from the 0/1 patterns of
    the tensors' entries that are nonzero mod p: over Q, with every term
    added, the residual of the stack of the n + 1 candidates whose first
    t entries are 1, t = 0..n, counts at each entry the products of
    nonzero factors that reach it; no sign cancels one, so an entry
    is decided by its first t entries when its count at t is its count
    at n.  Every term has a factor of c, an action or the twist, so when
    every pattern is 0 so is every entry, and none is listed."""
    n = math.prod(shape)

    def pattern(t):
        flat = to_pure(t.field.reduce(t.ints)).flat
        return Encoded(QQ, IntTensor(t.shape, [int(x != 0) for x in flat]))

    c, *actions, twist = [None if t is None else pattern(t)
                          for t in (c, *actions, twist)]
    if not any(t.ints.any() for t in (c, *actions, twist) if t is not None):
        return []
    stack = IntTensor((n + 1, *shape),
                      [int(k < t) for t in range(n + 1) for k in range(n)])
    counts = to_pure(_residual(kind, Encoded(QQ, stack), c, actions, twist,
                               sign=1).ints).flat
    width = len(counts) // (n + 1)
    return [next(t for t in range(n + 1)
                 if counts[t * width + e] == counts[n * width + e])
            for e in range(width)]


def _passing(failing, cols):
    """Per candidate of a block, whether its residual is zero at the flat
    positions `cols` (None: at every position), from the boolean tensor
    of its nonzero entries: a list of bools, or a numpy mask."""
    size = failing.shape[0]
    failing = failing.reshape(size, math.prod(failing.shape[1:]))
    if cols is not None:
        failing = failing[:, cols]
    if not isinstance(failing, IntTensor):
        return ~failing.any(axis=1)
    flat, width = failing.flat, failing.shape[1]
    return [not any(flat[j * width:(j + 1) * width]) for j in range(size)]


def search_rows(algebra: Algebra, module: Bimodule | None, kind: str,
                cocycle=None, budget: int | None = None):
    """The passing candidates of `search_operators` as one Encoded stack
    of shape (solutions, *candidate shape), over scale 1, on an IntTensor
    of canonical representatives.  A space of p^n >= 2^63 candidates,
    past the int64 candidate index, is refused whatever the budget.  Kind
    trb needs the twist `cocycle`, and every other kind refuses one.

    Candidates are maps M -> A (grb/trb), endomorphisms of A
    (rb/reynolds/nijenhuis), or tensors in A (x) A (aybe).  Their n
    flattened entries are assigned depth-first, each with the values
    0..p-1, so complete candidates come in lexicographic order; the
    index of a candidate, its entries read as base-p digits, names it.
    Level t, the first t entries assigned, is checked when a residual
    entry is decided there or at an unchecked level before it
    (`_decided`) and its box of p^t prefixes is at least
    `linalg.SEARCH_LEVEL`; level n always is, on every entry no earlier
    level checked.  A checked level grows the survivors of the last one
    by the entries between them, evaluates the grown prefixes, later
    entries 0, by the checkers' contractions in blocks of at most
    `SEARCH_BLOCK` (fewer when one candidate's largest tensor is large,
    `BLOCK_ENTRIES`), and keeps those whose entries decided since the
    last check are 0 mod p.  A space with no checked level before n is
    evaluated whole, in blocks.  A search whose box's dense work, p^n
    times one candidate's, is at most `linalg.PURE_WORK` builds its
    blocks on the pure kernel; any other builds int64 numpy blocks, so
    its products run there.
    """
    if kind not in _CHECKERS:
        raise InputError(f"unknown search kind {kind!r}; one of {_CHECKERS}")
    field = algebra.field
    if field.char == 0:
        raise InputError("exhaustive search needs a prime field")
    if budget is None:
        budget = SEARCH_BUDGET
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise InputError(f"search budget must be a positive integer, got {budget!r}")
    if kind not in ("grb", "trb"):
        module = canonical_bimodule(algebra)
    elif module is None:
        raise InputError(f"search kind {kind!r} needs a bimodule")
    shape = (module.dim, algebra.dim)
    n = shape[0] * shape[1]
    p = field.char
    total = p ** n
    if total >= 2 ** 63:
        raise CapacityError(
            f"search space {p}^{n} = {total} has 2^63 or more "
            f"candidates, past the int64 candidate index")
    if total > budget:
        raise CapacityError(
            f"search space {p}^{n} = {total} exceeds the "
            f"budget {budget}")
    if kind == "trb" and cocycle is None:
        raise InputError("search kind 'trb' needs the twist cochain")
    if kind != "trb" and cocycle is not None:
        raise InputError(f"search kind {kind!r} takes no twist cochain")
    if kind != "aybe":
        # the module and the twist are validated once, on the zero map
        zero = Encoded(field, embed(shape, []))
        OperatorInstance(algebra, module, zero, cocycle)

    c = algebra._c
    actions = (module._left, module._right) if kind in ("grb", "trb") else ()
    twist = None if cocycle is None else cocycle._tensor
    pure = total * _candidate_work(
        kind, algebra.dim, shape[0], kind != "aybe" and module._left is c,
        twist is not None) <= linalg.PURE_WORK
    block = max(1, min(SEARCH_BLOCK, BLOCK_ENTRIES // max(shape) ** 3))
    if pure:        # the digits of an index's leading and trailing halves
        half = p ** (n // 2)
        high = list(product(range(p), repeat=n - n // 2))
        low = list(product(range(p), repeat=n // 2))
    else:
        np = _np()
        powers = np.array([p ** e for e in range(n - 1, -1, -1)],
                          dtype=np.int64)

    def digits(indices):
        """The candidates of the `indices`: candidate k has the base-p
        digits of k, most significant first, so index order is the
        lexicographic order of the flattened entries."""
        if pure:
            return IntTensor((len(indices), *shape), list(chain.from_iterable(
                high[k // half] + low[k % half] for k in indices)))
        return (np.array(indices, dtype=np.int64)[:, None] // powers
                % p).reshape(-1, *shape)

    def level(prefixes, t, grow, cols):
        """The prefixes of t entries grown from `prefixes` (of t - grow)
        by every value of the next `grow` entries, in order, as blocks of
        at most `block`: the indices, the candidates (later entries 0)
        and, per candidate, whether its residual is 0 mod p at the flat
        positions `cols` (None: all)."""
        step = p ** (n - t)
        grown = chain.from_iterable(range(pre, pre + step * p ** grow, step)
                                    for pre in prefixes)
        while chunk := list(islice(grown, block)):
            ints = digits(chunk)
            failing = _residual(kind, Encoded(field, ints), c, actions,
                                twist).differs(None)
            yield chunk, ints, _passing(failing, cols)

    checked, done = [], 0
    if p ** (n - 1) >= linalg.SEARCH_LEVEL:
        decided = _decided(kind, shape, c, actions, twist)
        for t in range(1, n):
            cols = [e for e, s in enumerate(decided) if done < s <= t]
            if cols and p ** t >= linalg.SEARCH_LEVEL:
                checked.append((t, cols))
                done = t
    final = None if done == 0 else \
        [e for e, s in enumerate(decided) if not 0 < s <= done]
    stream, done = iter([0]), 0
    for t, cols in checked:
        stream = chain.from_iterable(
            compress(chunk, keep)
            for chunk, _, keep in level(stream, t, t - done, cols))
        done = t
    passed = []
    for _, ints, keep in level(stream, n, n - done, final):
        if pure:
            flat = ints.flat
            passed += chain.from_iterable(compress(
                (flat[j * n:(j + 1) * n] for j in range(len(keep))), keep))
        else:
            passed += ints.reshape(-1, n)[keep].ravel().tolist()
    return Encoded(field, IntTensor((len(passed) // n, *shape), passed))
