"""Dendriform and NS-algebras: axiom checkers, construction from
(twisted) Rota-Baxter operators, induced associative products and
bimodule actions, derivation duality, and morphisms of operator
instances.

NS axioms, for products succ (>), prec (<) and vee (v), with
x*y = x>y + x<y + x v y:

    (t1)  (x < y) < z = x < (y > z + y < z + y v z)
    (t2)  (x > y) < z = x > (y < z)
    (t3)  x > (y > z) = (x > y + x < y + x v y) > z
    (t4)  x > (y v z) - (x*y) v z + x v (y*z) - (x v y) < z = 0

A dendriform algebra is an NS-algebra without vee (`Dendriform`, with
vee None): t1-t3 read without the vee terms are its axioms d1-d3, and
t4 vanishes.  A generalized Rota-Baxter operator is in the same way the
twisted case with phi = 0, so one checker and one derivation serve
both.
`induced_actions` returns A as a `Bimodule` over the induced algebra
M_ass; the maps the functions take are matrices (see `operators`).
The derivations and the duality import `operators` (and the duality
`cochains`) where they run, so checking a structure or a morphism loads
neither.
"""

from __future__ import annotations

from .algebra import Algebra, Bimodule, Verdict, intertwining
from .errors import InputError
from .linalg import (Encoded, _shaped, combine, decoded, einsum, eye,
                     first_nonzero_index)


class NSAlgebra:
    """Product tensors succ, prec and vee on a module; vee=None is the
    dendriform case (`Dendriform`).  Validity is what check_ns decides,
    so raw (possibly broken) tensors can be wrapped for testing.  The
    products are kept in their field's integer encoding."""

    kind = "NS"
    succ = decoded("_succ")
    prec = decoded("_prec")
    vee = decoded("_vee")

    def __init__(self, field, succ, prec, vee):
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

    def _total(self):
        return combine([(t, 1) for t in (self._succ, self._prec, self._vee)
                        if t is not None])

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Dendriform(NSAlgebra):
    """Two product tensors succ and prec: an NS-algebra without vee; see
    check_dendriform."""

    kind = "dendriform"

    def __init__(self, field, succ, prec):
        super().__init__(field, succ, prec, None)


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
    from .operators import induced_products
    report = check(inst)
    if not report:
        raise InputError(
            f"operator is not {kind} Rota-Baxter; identity fails at "
            f"basis pair {report.witness}")
    return induced_products(inst)


def dendriform_from_grb(inst) -> Dendriform:
    """m > n := p(m).n and m < n := m.p(n); needs a GRB instance."""
    from .operators import is_grb
    succ, prec, _ = _derived(inst, is_grb, "generalized")
    return Dendriform(inst.field, succ, prec)


def ns_from_trb(inst) -> NSAlgebra:
    """m > n := p(m).n, m < n := m.p(n), m v n := phi(p(m), p(n));
    needs a TRB instance."""
    from .operators import is_trb
    return NSAlgebra(inst.field, *_derived(inst, is_trb, "twisted"))


def total_product(structure) -> Algebra:
    """The sum of the products as an associative Algebra, which the
    structure's axioms imply (it fails loudly if they do not hold)."""
    report = _check(structure)
    if not report:
        raise InputError(f"structure axioms fail: {report.detail}")
    return Algebra(structure.field, structure._total(), check=False)


def induced_actions(inst) -> Bimodule:
    """A as a bimodule over the induced algebra M_ass (its `base`), for a
    GRB instance:
    m ._p a = p(m)a - p(m.a)  (left action of M_ass on A, (dM, dA, dA)),
    a ._p m = ap(m) - p(a.m)  (right action, (dA, dM, dA)); GRB implies the
    dendriform axioms, so M_ass's associativity, and the bimodule axioms,
    so none is checked (test_theorems)."""
    m_ass = Algebra(inst.field, dendriform_from_grb(inst)._total(),
                    check=False)
    A, M, P = inst.algebra, inst.module, inst._op
    # left[j, i] = p(m_j) e_i - p(m_j . e_i); right[i, j] = e_i p(m_j) - p(e_i . m_j)
    left = einsum("ja,ail->jil", P, A._c) - einsum("jix,xl->jil", M._right, P)
    right = einsum("ixl,jx->ijl", A._c, P) - einsum("ijx,xl->ijl", M._left, P)
    return Bimodule(m_ass, left, right, check=False)


def derivation_dual(inst, omega, z):
    """Dual operator of a GRB instance: a derivation W: A -> M (the
    matrix `omega`) with W(p(m)) = z m, for z an int or a scalar of the
    field, becomes a GRB operator A -> M_ass over the induced actions."""
    from .cochains import Cochain, is_cocycle
    from .operators import OperatorInstance
    A, M, field = inst.algebra, inst.module, inst.field
    W = _shaped(field, omega, (A.dim, M.dim), "derivation must map A to M")
    # a derivation is a Hochschild 1-cocycle: a.W(b) - W(ab) + W(a).b = 0
    report = is_cocycle(Cochain(A, M, W))
    if not report:
        i, j = report.witness[:2]
        raise InputError(
            f"map is not a derivation: W(ab) != W(a).b + a.W(b) at "
            f"basis pair ({i},{j})")
    z = field.from_int(z) if type(z) is int else z
    if not field.is_scalar(z):
        raise InputError(f"z must be an int or a scalar of {field.name}: {z!r}")
    n, scale = field.pair(z)
    if einsum("ix,xj->ij", inst._op, W).differs(
            Encoded(field, eye(M.dim, n), scale)).any():
        raise InputError("W o p is not z times the identity on M")
    actions = induced_actions(inst)
    return OperatorInstance(actions.base, actions, W)


def grb_morphism_check(psi0, psi1, src, dst) -> Verdict:
    """Morphism of operator instances: the square psi0 o p = p' o psi1
    commutes and psi1 intertwines the actions:
    psi1(a.m) = psi0(a).psi1(m) and psi1(m.a) = psi1(m).psi0(a)."""
    f0 = _shaped(src.field, psi0, (src.algebra.dim, dst.algebra.dim),
                 "psi0 must map the source algebra to the target algebra")
    f1 = _shaped(src.field, psi1, (src.module.dim, dst.module.dim),
                 "psi1 must map the source module to the target module")
    bad = first_nonzero_index(einsum("ix,xj->ij", src._op, f0).differs(
        einsum("ix,xj->ij", f1, dst._op)))
    if bad is not None:
        return Verdict(False, bad, detail="square does not commute")
    bad = intertwining(f0, f1, src.module, dst.module)
    if bad is None:
        return Verdict(True)
    return Verdict(False, bad[:2], detail=("left actions not intertwined",
                                           "right actions not intertwined")[bad[2]])
