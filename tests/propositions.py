"""The paper's propositions that no rbx verb decides, built on rbx.

These constructions and checks state results of the paper on top of the
library's structures: the dual bimodule A* and the operator r~ of a
skew-symmetric AYBE solution on it, the identity operator of a
dendriform or NS algebra, the intertwiner check of the flow's
conjugation, and the derived bracket and graded-Jacobi residual of the
Gerstenhaber calculus.  They compute on rbx's integer encoding, as
`weyl` computes on its own, and the tests check them against the
independent evaluators of `oracle` and against the verbs' checkers.
"""

from __future__ import annotations

from rbx.algebra import Algebra, Bimodule, Verdict, bimodule_check
from rbx.cochains import Cochain
from rbx.errors import InputError
from rbx.gerstenhaber import MultiMap, g_bracket
from rbx.linalg import Encoded, combine, einsum, eye, rank
from rbx.operators import OperatorInstance, _shaped, aybe_encoded
from rbx.structures import total_product


def dual_module(algebra: Algebra) -> Bimodule:
    """The dual space A* with (a.f)(b) = f(ba) and (f.a)(b) = f(ab):
    left[s, i, j] = c[j, s, i] and right[i, s, j] = c[s, j, i]."""
    c = algebra._c
    return Bimodule(algebra, c.transpose(1, 2, 0), c.transpose(2, 0, 1),
                    check=False)


def r_tilde(algebra: Algebra, r) -> OperatorInstance:
    """The operator A* -> A, f |-> sum a_i f(b^i), of a skew-symmetric
    AYBE solution r, over the dual bimodule."""
    d = algebra.dim
    r = _shaped(algebra.field, r, (d, d),
                f"r must be a {d}x{d} tensor in A (x) A")
    if (r + r.transpose(1, 0)).differs(None).any():
        raise InputError("r is not skew-symmetric")
    if aybe_encoded(algebra, r).differs(None).any():
        raise InputError("r does not solve the associative Yang-Baxter equation")
    # row i = image of the i-th dual basis vector
    return OperatorInstance(algebra, dual_module(algebra), r.transpose(1, 0))


def identity_operator(structure) -> OperatorInstance:
    """The identity map of a dendriform (resp. NS) algebra onto its total
    algebra, as a GRB (resp. TRB) instance: e.x = e > x, x.e = x < e, and
    for NS input the twist is the vee product."""
    total = total_product(structure)
    module = Bimodule(total, structure._succ, structure._prec, check=False)
    report = bimodule_check(total, module)
    if not report:
        raise InputError(f"induced actions fail bimodule axioms at {report.witness}")
    op = Encoded(structure.field, eye(structure.dim))
    twist = None if structure._vee is None else \
        Cochain(total, module, structure._vee)
    return OperatorInstance(total, module, op, twist)


def intertwiner_check(T, P, Q) -> Verdict:
    """Does T intertwine the arity-2 MultiMaps P and Q: T(P(x,y)) = Q(Tx,Ty)?

    T must be an invertible endomorphism of the common space, over P's field.
    """
    t = _shaped(P.field, T, (P.dim, P.dim), "intertwiner must be an endomorphism")
    if rank(t) != P.dim:
        raise InputError("intertwiner is singular")
    if (P.arity, Q.arity, Q.dim) != (2, 2, P.dim):
        raise InputError("P and Q must be arity-2 maps on the same space")
    image = einsum("jb,ibl->ijl", t, einsum("ia,abl->ibl", t, Q._tensor))
    return Verdict.compare(einsum("ijx,xl->ijl", P._tensor, t), image, 3)


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
