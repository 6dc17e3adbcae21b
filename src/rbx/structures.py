"""Dendriform and NS-algebras: axiom checkers, construction from
(twisted) Rota-Baxter operators, induced associative products and
bimodule actions, and instance-level functor round-trips.

NS axioms, for products succ (>), prec (<) and vee (v), with
x*y = x>y + x<y + x v y:

    (t1)  (x < y) < z = x < (y > z + y < z + y v z)
    (t2)  (x > y) < z = x > (y < z)
    (t3)  x > (y > z) = (x > y + x < y + x v y) > z
    (t4)  x > (y v z) - (x*y) v z + x v (y*z) - (x v y) < z = 0

A dendriform algebra is an NS-algebra without vee (`Dendriform`, with
vee None): t1-t3 read without the vee terms are its axioms d1-d3, and
t4 vanishes.  A generalized Rota-Baxter operator is in the same way the
twisted case with phi = 0, so one checker, one derivation and one
identity operator serve both.
`induced_actions` returns A as a `Bimodule` over the induced algebra
M_ass; the maps the functions take are matrices (see `operators`).
"""

from __future__ import annotations

from .algebra import Algebra, Bimodule, Verdict, bimodule_check
from .cochains import Cochain
from .errors import InputError
from .linalg import (Encoded, combine, decoded, einsum, eye,
                     first_difference, first_nonzero_index)
from .operators import OperatorInstance, induced_products, is_grb, is_trb


class NSAlgebra:
    """Product tensors succ, prec and vee on a module; vee=None is the
    dendriform case (`Dendriform`).  Validity is what check_ns decides,
    so raw (possibly broken) tensors can be wrapped for testing.  The
    products are kept in their field's integer encoding."""

    kind = "NS"
    succ = decoded("_succ")
    prec = decoded("_prec")
    vee = decoded("_vee")

    def __init__(self, field, succ, prec, vee, labels=None):
        succ, prec = Encoded.of(field, succ), Encoded.of(field, prec)
        vee = None if vee is None else Encoded.of(field, vee)
        shape = succ.shape
        if len(shape) != 3 or len(set(shape)) != 1 or any(
                t.shape != shape for t in (prec, vee) if t is not None):
            raise InputError(f"{self.kind} product tensors must be equal-shape cubes")
        self.field = field
        self._succ = succ
        self._prec = prec
        self._vee = vee
        self.dim = shape[0]
        self.labels = list(labels) if labels is not None else [f"m{i}" for i in range(self.dim)]

    def _total(self):
        return combine([(t, 1) for t in (self._succ, self._prec, self._vee)
                        if t is not None])

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Dendriform(NSAlgebra):
    """Two product tensors succ and prec: an NS-algebra without vee; see
    check_dendriform."""

    kind = "dendriform"

    def __init__(self, field, succ, prec, labels=None):
        super().__init__(field, succ, prec, None, labels)


def check_dendriform(dend: Dendriform) -> Verdict:
    """All three axioms on every basis triple; reports every violated
    axiom (first witness per axiom), not just the first."""
    return _check(dend)


def check_ns(ns: NSAlgebra) -> Verdict:
    """All four axioms on every basis triple; reports every violated axiom."""
    return _check(ns)


def _check(structure) -> Verdict:
    """The axioms of an NS-algebra, or of a dendriform one when vee is
    None, on encoded products; the failures hold one (axiom, (i,j,k),
    lhs, rhs) per violated axiom."""
    succ, prec, vee = structure._succ, structure._prec, structure._vee
    total = structure._total()
    names = ("d1", "d2", "d3") if vee is None else ("t1", "t2", "t3", "t4")

    def left_assoc(first, second):          # (e_i FIRST e_j) SECOND e_k
        return einsum("ijx,xkl->ijkl", first, second)

    def right_assoc(first, second):         # e_i FIRST (e_j SECOND e_k)
        return einsum("ixl,jkx->ijkl", first, second)

    sides = [
        # (x < y) < z  vs  x < (y > z + y < z [+ y v z])
        (left_assoc(prec, prec), right_assoc(prec, total)),
        # (x > y) < z  vs  x > (y < z)
        (left_assoc(succ, prec), right_assoc(succ, prec)),
        # x > (y > z)  vs  (x > y + x < y [+ x v y]) > z
        (right_assoc(succ, succ), left_assoc(total, succ)),
    ]
    if vee is not None:
        # x > (y v z) - (x*y) v z + x v (y*z) - (x v y) < z = 0
        sides.append((combine([(right_assoc(succ, vee), 1),
                               (left_assoc(total, vee), -1),
                               (right_assoc(vee, total), 1),
                               (left_assoc(vee, prec), -1)]), None))
    failures = []
    for name, (lhs, rhs) in zip(names, sides):
        v = Verdict.compare(lhs, rhs, 3)
        if not v:
            failures.append((name, v.witness, v.lhs, v.rhs))
    if not failures:
        return Verdict(True)
    return Verdict(False, failures[0][1],
                   detail="; ".join(sorted({f[0] for f in failures})),
                   failures=tuple(failures))


def _derived(inst, check, kind):
    """The products the instance induces on M, once `check` shows that
    its operator is `kind` Rota-Baxter."""
    report = check(inst)
    if not report:
        raise InputError(
            f"operator is not {kind} Rota-Baxter; identity fails at "
            f"basis pair {report.witness}")
    return induced_products(inst)


def dendriform_from_grb(inst: OperatorInstance) -> Dendriform:
    """m > n := p(m).n and m < n := m.p(n); needs a GRB instance."""
    succ, prec, _ = _derived(inst, is_grb, "generalized")
    return Dendriform(inst.field, succ, prec, labels=inst.module.labels)


def ns_from_trb(inst: OperatorInstance) -> NSAlgebra:
    """m > n := p(m).n, m < n := m.p(n), m v n := phi(p(m), p(n));
    needs a TRB instance."""
    return NSAlgebra(inst.field, *_derived(inst, is_trb, "twisted"),
                     labels=inst.module.labels)


def total_product(structure) -> Algebra:
    """The sum of the products as an associative Algebra (construction
    fails loudly if the structure's axioms do not hold)."""
    checker = check_dendriform if structure._vee is None else check_ns
    report = checker(structure)
    if not report:
        raise InputError(f"structure axioms fail: {report.detail}")
    return Algebra(structure.field, structure._total(), labels=structure.labels)


def identity_operator(structure) -> OperatorInstance:
    """The identity map of a dendriform (resp. NS) algebra onto its total
    algebra, as a GRB (resp. TRB) instance: e.x = e > x, x.e = x < e, and
    for NS input the twist is the vee product."""
    total = total_product(structure)
    module = Bimodule(total, structure._succ, structure._prec,
                      labels=structure.labels, check=False)
    report = bimodule_check(total, module)
    if not report:
        raise InputError(f"induced actions fail bimodule axioms at {report.witness}")
    op = Encoded(structure.field, eye(structure.dim))
    twist = None if structure._vee is None else \
        Cochain(total, module, structure._vee)
    return OperatorInstance(total, module, op, twist)


def induced_actions(inst: OperatorInstance) -> Bimodule:
    """A as a bimodule over the induced algebra M_ass (its `base`), for a
    GRB instance:
    m ._p a = p(m)a - p(m.a)  (left action of M_ass on A, (dM, dA, dA)),
    a ._p m = ap(m) - p(a.m)  (right action, (dA, dM, dA))."""
    m_ass = total_product(dendriform_from_grb(inst))
    A, M, P = inst.algebra, inst.module, inst._op
    # left[j, i] = p(m_j) e_i - p(m_j . e_i); right[i, j] = e_i p(m_j) - p(e_i . m_j)
    left = einsum("ja,ail->jil", P, A._c) - einsum("jix,xl->jil", M._right, P)
    right = einsum("ixl,jx->ijl", A._c, P) - einsum("ijx,xl->ijl", M._left, P)
    module = Bimodule(m_ass, left, right, labels=A.labels, check=False)
    check = bimodule_check(m_ass, module)
    if not check:
        raise InputError(f"induced actions fail bimodule axioms at {check.witness}")
    return module


def derivation_dual(inst: OperatorInstance, omega, z) -> OperatorInstance:
    """Dual operator of a GRB instance: a derivation W: A -> M (the
    matrix `omega`) with W(p(m)) = z m, for z an int or a scalar of the
    field, becomes a GRB operator A -> M_ass over the induced actions."""
    A, M, field = inst.algebra, inst.module, inst.field
    W = Encoded.of(field, omega)
    if W.shape != (A.dim, M.dim):
        raise InputError("derivation must map A to M")
    # W(e_i e_j) against W(e_i).e_j + e_i.W(e_j)
    residual = combine([(einsum("ijx,xl->ijl", A._c, W), 1),
                        (einsum("ix,xjl->ijl", W, M._right), -1),
                        (einsum("ixl,jx->ijl", M._left, W), -1)])
    bad = first_nonzero_index(residual.differs(None), 2)
    if bad is not None:
        raise InputError(
            f"map is not a derivation: W(ab) != W(a).b + a.W(b) at "
            f"basis pair ({bad[0]},{bad[1]})")
    z = field.from_int(z) if type(z) is int else z
    if not field.is_scalar(z):
        raise InputError(f"z must be an int or a scalar of {field.name}: {z!r}")
    (n,), scale = field.encode([z])
    if einsum("ix,xj->ij", inst._op, W).differs(
            Encoded(field, eye(M.dim, n), scale)).any():
        raise InputError("W o p is not z times the identity on M")
    actions = induced_actions(inst)
    return OperatorInstance(actions.base, actions, W)


def grb_morphism_check(psi0, psi1, src: OperatorInstance,
                       dst: OperatorInstance) -> Verdict:
    """Morphism of operator instances: the square psi0 o p = p' o psi1
    commutes and psi1 intertwines the actions:
    psi1(a.m) = psi0(a).psi1(m) and psi1(m.a) = psi1(m).psi0(a)."""
    f0, f1 = (Encoded.of(src.field, psi) for psi in (psi0, psi1))
    if f0.shape != (src.algebra.dim, dst.algebra.dim):
        raise InputError("psi0 must map the source algebra to the target algebra")
    if f1.shape != (src.module.dim, dst.module.dim):
        raise InputError("psi1 must map the source module to the target module")
    bad = first_nonzero_index(einsum("ix,xj->ij", src._op, f0).differs(
        einsum("ix,xj->ij", f1, dst._op)))
    if bad is not None:
        return Verdict(False, bad, detail="square does not commute")
    left, right = dst.module._left, dst.module._right
    # [i, j, action, l] for a = e_i and m = m_j; the left action comes
    # first: psi1(a.m) vs psi0(a).psi1(m), then psi1(m.a) vs psi1(m).psi0(a)
    sides = [(einsum("ijx,xl->ijl", src.module._left, f1),
              einsum("jb,ibl->ijl", f1, einsum("ia,abl->ibl", f0, left))),
             (einsum("jix,xl->ijl", src.module._right, f1),
              einsum("ia,jal->ijl", f0, einsum("jb,bal->jal", f1, right)))]
    bad = first_difference(sides, 2)
    if bad is None:
        return Verdict(True)
    return Verdict(False, bad[:2], detail=("left actions not intertwined",
                                           "right actions not intertwined")[bad[2]])
