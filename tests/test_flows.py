import hashlib
import json
import random

import numpy as np
import pytest

from conftest import catalog_trb_instances
from oracle import (identity, induced_product, random_tensor, tensors_equal,
                    zeros)
from propositions import intertwiner_check
from rbx.algebra import canonical_bimodule
from rbx.fields import F2, F3, F5, QQ, PrimeField
from rbx.gerstenhaber import g_bracket
from rbx.instances import (kx2, mult_by_x_instance, swap_instance,
                           tensor_square, truncated_polynomial)
from rbx.linalg import is_zero
from rbx.operators import (OperatorInstance, extension_mult_map,
                           is_grb, is_trb, lift_cocycle, lift_operator,
                           semidirect_mult_map, structure_residual)
from rbx.flows import (addexp_check, exp_flow, flow_truncation,
                       hamiltonian_field)
from rbx.structures import ns_from_trb, total_product


F7 = PrimeField(7)


def random_instance(field, rng, twisted=False):
    A = kx2(field)
    M = canonical_bimodule(A)
    mat = random_tensor((2, 2), field, rng)
    if not twisted:
        return OperatorInstance(A, M, mat)
    from rbx.cochains import Cochain

    return OperatorInstance(A, M, mat, Cochain(A, M, -A.c))


def test_hamiltonian_field_zero_operator(kx2_q):
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q),
                            zeros((2, 2), QQ))
    theta = extension_mult_map(inst)
    assert hamiltonian_field(theta, inst).is_zero_map()


def test_hamiltonian_field_m_block_formula(mult_by_x_q):
    # X(mu^)((0,m),(0,n)) lands in the M-block with value p(m).n + m.p(n)
    inst = mult_by_x_instance(QQ)
    field_map = hamiltonian_field(extension_mult_map(inst), inst)
    M, p = inst.module, inst.op
    dA = 2
    for i in range(2):
        for j in range(2):
            got = field_map.tensor[dA + i, dA + j]
            expected = induced_product(p, M.left, M.right, i, j, QQ)
            assert is_zero(got[:dA])
            assert tensors_equal(got[dA:], expected)


def test_hamiltonian_field_linear_in_theta(mult_by_x_q):
    rng = random.Random(61)
    t1 = random_tensor((4, 4, 4), QQ, rng)
    t2 = random_tensor((4, 4, 4), QQ, rng)
    from rbx.gerstenhaber import MultiMap

    f1, f2 = MultiMap(QQ, t1), MultiMap(QQ, t2)
    lhs = hamiltonian_field(f1 + f2, mult_by_x_q)
    rhs = hamiltonian_field(f1, mult_by_x_q) + hamiltonian_field(f2, mult_by_x_q)
    assert tensors_equal(lhs.tensor, rhs.tensor)


def test_flow_zero_operator_is_theta():
    ts = tensor_square(kx2(QQ))
    inst = OperatorInstance(ts.algebra, ts.module,
                            zeros(ts.op.shape, QQ), ts.cocycle)
    flow = exp_flow(inst)
    assert tensors_equal(flow.total.tensor, flow.theta.tensor)


def test_flow_grb_collapses_to_two_terms(mult_by_x_q):
    flow = exp_flow(mult_by_x_q)
    assert flow.order2.is_zero_map() and flow.order3.is_zero_map()
    assert tensors_equal(flow.total.tensor,
                         (flow.theta + flow.order1).tensor)


def test_flow_nilpotency_x4_is_zero():
    rng = random.Random(62)
    for twisted in (False, True):
        for _ in range(5):
            inst = random_instance(QQ, rng, twisted)
            theta = extension_mult_map(inst)
            p_hat = lift_operator(inst)
            x = theta
            for _ in range(4):
                x = g_bracket(x, p_hat)
            assert x.is_zero_map()


def test_flow_total_is_always_associative():
    # [S, S] = 0 for the flow of an arbitrary operator, Rota-Baxter or not
    rng = random.Random(63)
    for twisted in (False, True):
        for _ in range(8):
            inst = random_instance(QQ, rng, twisted)
            flow = exp_flow(inst)
            assert g_bracket(flow.total, flow.total).is_zero_map()


def test_intertwiner_one_plus_lift():
    # (1 + p^) conjugates the flow back to theta for arbitrary operators
    rng = random.Random(64)
    for twisted in (False, True):
        for _ in range(8):
            inst = random_instance(QQ, rng, twisted)
            flow = exp_flow(inst)
            T = identity(4, QQ) + lift_operator(inst).tensor
            assert intertwiner_check(T, flow.total, flow.theta)
            # 1 - p^ inverts 1 + p^ because the lift squares to zero
            Tinv = identity(4, QQ) - lift_operator(inst).tensor
            assert tensors_equal(np.dot(T, Tinv), identity(4, QQ))


def test_closed_forms_match_bracket_route():
    # the division-free order-2/order-3 terms agree with the scaled
    # brackets wherever the characteristic admits both routes
    rng = random.Random(65)
    for field in (QQ, F5):
        for twisted in (False, True):
            inst = random_instance(field, rng, twisted)
            theta = extension_mult_map(inst)
            p_hat = lift_operator(inst)
            flow = exp_flow(inst)
            half, sixth = flow.order2, flow.order3
            order1 = g_bracket(theta, p_hat)
            assert tensors_equal(flow.order1.tensor, order1.tensor)
            assert tensors_equal(
                half.tensor,
                g_bracket(order1, p_hat).scale(field.parse("1/2")).tensor)
            assert tensors_equal(
                sixth.tensor,
                g_bracket(g_bracket(order1, p_hat), p_hat).scale(
                    field.parse("1/6")).tensor)
            # the structure residual is the scaled nested brackets:
            # (1/2)[[mu^,p^],p^] (+ (1/6)[[[phi^,p^],p^],p^] when twisted)
            expected = g_bracket(g_bracket(semidirect_mult_map(inst), p_hat),
                                 p_hat).scale(field.parse("1/2"))
            if twisted:
                triple = g_bracket(g_bracket(g_bracket(
                    lift_cocycle(inst), p_hat), p_hat), p_hat)
                expected = expected + triple.scale(field.parse("1/6"))
            assert tensors_equal(structure_residual(inst).tensor,
                                 expected.tensor)


def test_flow_works_over_small_characteristic():
    # closed forms keep the flow exact over F2 and F3: always associative,
    # always conjugate to theta, truncating, with a zero residual, exactly
    # for Rota-Baxter maps
    rng = random.Random(68)
    for field in (F2, F3):
        A = kx2(field)
        M = canonical_bimodule(A)
        mats = [mult_by_x_instance(field).op, identity(2, field)]
        mats += [random_tensor((2, 2), field, rng) for _ in range(6)]
        for mat in mats:
            inst = OperatorInstance(A, M, mat)
            flow = exp_flow(inst)
            assert g_bracket(flow.total, flow.total).is_zero_map()
            T = identity(4, field) + lift_operator(inst).tensor
            assert intertwiner_check(T, flow.total, flow.theta)
            assert bool(addexp_check(inst)) == bool(is_grb(inst)) == \
                structure_residual(inst).is_zero_map()


def test_addexp_catalog_trb_instances():
    for name, inst in catalog_trb_instances().items():
        report = addexp_check(inst)
        assert report, name


def test_addexp_identity_not_grb(kx2_q):
    inst = OperatorInstance(kx2_q, canonical_bimodule(kx2_q), identity(2, QQ))
    report = addexp_check(inst)
    assert not report
    # the obstruction is the nonzero structure residual
    assert not structure_residual(inst).is_zero_map()


def test_addexp_zero_operator_with_cocycle():
    ts = tensor_square(kx2(QQ))
    inst = OperatorInstance(ts.algebra, ts.module,
                            zeros(ts.op.shape, QQ), ts.cocycle)
    assert addexp_check(inst)


def test_addexp_m_restriction_matches_total_product():
    for name, inst in catalog_trb_instances().items():
        flow = exp_flow(inst)
        times = total_product(ns_from_trb(inst))
        dA = inst.algebra.dim
        dM = inst.module.dim
        block = flow.total.tensor[dA:, dA:, dA:]
        assert tensors_equal(block, times.c), name
        assert is_zero(flow.total.tensor[dA:, dA:, :dA]), name


def test_addexp_iff_residual_zero():
    rng = random.Random(66)
    seen = {True: 0, False: 0}
    for twisted in (False, True):
        for _ in range(10):
            inst = random_instance(QQ, rng, twisted)
            a = bool(addexp_check(inst))
            b = structure_residual(inst).is_zero_map()
            assert a == b
            seen[a] += 1
    assert seen[False]


def test_flow_minus_truncation_is_the_structure_residual():
    # exact, entry for entry, for every operator and in every
    # characteristic: the flow's terms past the truncation are
    # (1/2)X^2(mu^) - p^ phi^(p^ (x) p^)
    rng = random.Random(70)
    for field in (QQ, F2, F3, F5, F7):
        insts = [random_instance(field, rng, twisted)
                 for twisted in (False, True) for _ in range(3)]
        ts = tensor_square(kx2(field))
        for cocycle in (None, ts.cocycle):
            insts += [OperatorInstance(ts.algebra, ts.module,
                                       random_tensor((4, 2), field, rng),
                                       cocycle) for _ in range(2)]
        for inst in insts:
            gap = exp_flow(inst).total - flow_truncation(inst)
            assert tensors_equal(gap.tensor,
                                 structure_residual(inst).tensor), inst


def test_addexp_equals_trb_verdict():
    rng = random.Random(67)
    for twisted in (False, True):
        for _ in range(10):
            inst = random_instance(QQ, rng, twisted)
            checker = is_trb if twisted else is_grb
            assert bool(addexp_check(inst)) == bool(checker(inst))


BUILDS = {"truncated-poly-5": lambda: truncated_polynomial(5),
          "swap-cochain": lambda: swap_instance(QQ)}

# circ_i calls per function on (truncated-poly-5, swap-cochain): no
# insertion is computed twice or left unused, and addexp_check makes
# only the residual's
CIRC_I_CALLS = [(addexp_check, 5, 8), (exp_flow, 7, 7),
                (structure_residual, 5, 8), (flow_truncation, 3, 8)]


@pytest.mark.parametrize("func, name, calls", [
    pytest.param(func, name, calls,
                 id=name if func is addexp_check else f"{func.__name__}-{name}")
    for func, *counts in CIRC_I_CALLS
    for name, calls in zip(BUILDS, counts)])
def test_addexp_reuses_the_flow_terms(func, name, calls, monkeypatch):
    import rbx.flows
    import rbx.gerstenhaber

    inst = BUILDS[name]()
    count = []
    original = rbx.gerstenhaber.circ_i

    def counting(*args):
        count.append(args)
        return original(*args)

    # circ_i is called directly, through half_square, and by operators,
    # which imports it from gerstenhaber when it runs
    for module in (rbx.flows, rbx.gerstenhaber):
        monkeypatch.setattr(module, "circ_i", counting)
    result = func(inst)
    assert len(count) == calls
    if func is addexp_check:
        assert result


# SHA-256 of the check-addexp --json reports, timing_ms dropped, of the
# cli-small and flow-heavy plans at seeds 1 to 3 in plan order, as the
# comparison of the flow with its truncation made them
ADDEXP_PLAN_REPORTS = \
    "c347684c081a590e56b17e9a12e19ab4cbe221d64548a4aaaa0d9f917f0acd9b"


def test_addexp_reports_on_the_plans_are_the_flow_comparisons(tmp_path):
    """`check-addexp` on the benchmark's documents reports what comparing
    the flow with its truncation reports: the verdict, the witness and
    both sides, and the pinned bytes."""
    from rbx import cli, schema
    from rbx.algebra import Verdict
    from test_numpy_free import in_process, workloads, write_documents

    reports = []
    for name in ("cli-small", "flow-heavy"):
        for seed in (1, 2, 3):
            plan = workloads.plan(name, seed)
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            write_documents(plan, str(workdir))
            for inv in plan.invocations:
                argv = inv.argv
                if argv[0] != "check-addexp":
                    continue
                (rc, out), = in_process([argv + ["--json"]], str(workdir))
                report = json.loads(out)
                report.pop("timing_ms")
                doc = schema.load_document((workdir / argv[1]).read_text())
                phi = argv[argv.index("--phi") + 1] if "--phi" in argv \
                    else None
                inst = cli._instance(doc, "pi", phi)
                flow = Verdict.compare(exp_flow(inst).total._tensor,
                                       flow_truncation(inst)._tensor, 3)
                assert (rc, report["verdict"]) == \
                    ((0, "pass") if flow else (1, "fail")), argv
                if not flow:
                    assert report["witness"] == {
                        "index": list(flow.witness),
                        "lhs": doc.field.format(flow.lhs),
                        "rhs": doc.field.format(flow.rhs)}, argv
                reports.append(report)
    assert {r["verdict"] for r in reports} == {"pass", "fail"}
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ADDEXP_PLAN_REPORTS
