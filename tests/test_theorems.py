"""The theorems the verbs rely on in place of a second check, pinned once.

`flows.addexp_check` compares the flow with its three-term truncation
and nothing else; `structures.induced_actions` checks neither the
induced dendriform axioms nor the bimodule axioms of its actions; and
`instances.tensor_square` and `truncated_polynomial` build their
bimodules unchecked.  Each rests on an implication checked here on a
fixed sample: the catalog instances over Q, and the first solutions, in
canonical order, of small exhaustive searches over F3 and F5.
"""

from conftest import upper_triangular
from rbx.algebra import Verdict, bimodule_check, canonical_bimodule
from rbx.catalog import TABLE
from rbx.fields import F2, F3, F5, QQ
from rbx.flows import addexp_check, exp_flow
from rbx.instances import (BUILDERS, kx2, null_algebra, tensor_square,
                           truncated_polynomial)
from rbx.operators import (OperatorInstance, induced_products, is_grb,
                           search_rows)
from rbx.structures import (check_dendriform, dendriform_from_grb,
                            induced_actions)

# the solutions kept from each search
CAP = 60


def sample():
    """The catalog instances over Q (truncated-poly at degrees 3-5), then
    up to CAP solutions each of kx2 rb, tensor-square grb and trb, and
    null2 rb, over F3 and F5."""
    for name, build in BUILDERS.items():
        if TABLE[name][2]:
            yield from (build(N) for N in (3, 4, 5))
        else:
            yield build()
    for field in (F3, F5):
        A, null2 = kx2(field), null_algebra(field, 2)
        ts = tensor_square(A)
        for algebra, module, kind, twist in (
                (A, canonical_bimodule(A), "rb", None),
                (A, ts.module, "grb", None),
                (A, ts.module, "trb", ts.cocycle),
                (null2, canonical_bimodule(null2), "rb", None)):
            for op in search_rows(algebra, module, kind, twist).objects[:CAP]:
                yield OperatorInstance(algebra, module, op, twist)


def test_each_theorem_the_verbs_rely_on():
    truncating = grb = 0
    for inst in sample():
        # the flow of a (twisted) Rota-Baxter operator restricts on M x M
        # to (0 | the induced product): theta is zero there, and
        # [theta, p^] and (1/2)[[phi^, p^], p^] land in M
        if addexp_check(inst):
            truncating += 1
            dA = inst.algebra.dim
            block = exp_flow(inst).total._tensor[dA:, dA:]
            succ, prec, vee = induced_products(inst)
            induced = succ + prec if vee is None else succ + prec + vee
            assert Verdict.compare(block[..., :dA], None, 3)
            assert Verdict.compare(block[..., dA:], induced, 3)
        # a GRB operator induces a dendriform algebra, and A is a bimodule
        # over its total product by the induced actions
        if inst.cocycle is None and is_grb(inst):
            grb += 1
            assert check_dendriform(dendriform_from_grb(inst))
            actions = induced_actions(inst)
            assert bimodule_check(actions.base, actions)
    assert (truncating, grb) == (246, 140)
    # A (x) A is an A-bimodule for an associative A, commutative or not,
    # and the truncations act by an associative quotient of k[x]
    for algebra in (kx2(QQ), kx2(F2), kx2(F3), upper_triangular(QQ)):
        ts = tensor_square(algebra)
        assert bimodule_check(ts.algebra, ts.module)
    for N in range(3, 9):
        tp = truncated_polynomial(N)
        assert bimodule_check(tp.algebra, tp.module)
