"""Acceptance suite: one test per criterion, every equality exact.

Each test prints a `criterion N PASS/FAIL` line; run with `pytest -s
tests/test_acceptance.py` to see the lines stream.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from conftest import (catalog_algebras, catalog_trb_instances,
                      enumeration_pairs)
from oracle import (add, aybe_oracle, bilinear, elements, identity,
                    induced_product, oracle_graph_check, random_tensor,
                    tensors_equal, zeros)
from propositions import (identity_operator, intertwiner_check,
                          jacobi_residual, r_tilde)
from rbx.algebra import (Algebra, assoc_check, bimodule_check,
                         canonical_bimodule, extension)
from rbx.cochains import Cochain, coboundary, is_cocycle
from rbx.fields import F2, F5, QQ
from rbx.flows import addexp_check, exp_flow, flow_truncation
from rbx.gerstenhaber import MultiMap, g_bracket
from rbx.instances import kx2, mult_by_x_instance, truncated_polynomial
from rbx.linalg import Encoded, is_zero
from rbx.operators import (OperatorInstance, aybe_residual,
                           extension_mult_map, is_grb, is_reynolds, is_trb,
                           lift_cocycle, lift_operator, reynolds_as_twisted,
                           structure_residual, twist_insertion)
from rbx.structures import (check_dendriform, check_ns, dendriform_from_grb,
                            ns_from_trb, total_product)
from weyl import WeylPoly, truncated_weyl


def report(criterion, ok, message):
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {criterion}: {message}"


def enumerate_operators(algebra, module):
    field = algebra.field
    n = module.dim * algebra.dim
    for entries in itertools.product(elements(field), repeat=n):
        yield np.array(entries, dtype=object).reshape(module.dim, algebra.dim)


def test_criterion_1_four_way_grb_equivalence():
    candidates = 0
    grb_count = 0
    for name, A, M in enumeration_pairs():
        ext = Algebra(A.field, extension(A, M))
        ext_mod = canonical_bimodule(ext)
        for mat in enumerate_operators(A, M):
            candidates += 1
            inst = OperatorInstance(A, M, mat)
            direct = bool(is_grb(inst))
            graph = oracle_graph_check(A.field, A.c, M.left, M.right,
                                       mat) is None
            lifted = bool(is_grb(OperatorInstance(
                ext, ext_mod, lift_operator(inst).tensor)))
            verdicts = {direct, graph, lifted}
            if A.field.char > 2:
                verdicts.add(structure_residual(inst).is_zero_map())
            assert len(verdicts) == 1, (name, mat)
            grb_count += direct
    report(1, candidates == 16 * 3 + 81 and grb_count > 0,
           f"four-way equivalence on all {candidates} enumerated operators "
           f"({grb_count} generalized Rota-Baxter)")


def test_criterion_2_dendriform_soundness():
    produced = 0
    for name, A, M in enumeration_pairs():
        for mat in enumerate_operators(A, M):
            inst = OperatorInstance(A, M, mat)
            if not is_grb(inst):
                continue
            produced += 1
            dend = dendriform_from_grb(inst)
            assert check_dendriform(dend), name
            assert assoc_check(dend._total()), name
    report(2, produced > 0,
           f"all {produced} enumerated operators induce valid dendriform "
           f"structures with associative total products")


def test_criterion_3_ns_soundness():
    names = []
    for name, inst in catalog_trb_instances().items():
        ns = ns_from_trb(inst)
        assert check_ns(ns), name
        assert assoc_check(ns._total()), name
        lifted = identity_operator(ns)
        assert lifted.cocycle is not None and is_cocycle(lifted.cocycle), name
        names.append(name)
    report(3, len(names) == 4,
           f"NS soundness for the twisted catalog: {', '.join(names)}")


def test_criterion_4_reynolds_equals_twisted_with_minus_mu():
    A = kx2(F2)
    matched = 0
    for entries in itertools.product(elements(F2), repeat=4):
        mat = np.array(entries, dtype=object).reshape(2, 2)
        plain = bool(is_reynolds(A, mat))
        twisted = bool(is_trb(reynolds_as_twisted(A, mat)))
        assert plain == twisted, mat
        matched += 1
    AQ = kx2(QQ)
    lambdas = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1),
               Fraction(1, 2), Fraction(3), Fraction(-2, 3)]
    for lam in lambdas:
        verdict = bool(is_reynolds(AQ, identity(2, QQ) * lam))
        assert verdict == (lam in (0, 1)), lam
    report(4, matched == 16,
           f"Reynolds <-> twisted(-mu) on all 16 endomorphisms over F2; "
           f"lambda*id Reynolds over Q exactly for lambda in {{0, 1}}")


def test_criterion_5_gerstenhaber_calculus():
    rng = random.Random(501)
    triples = 0
    for trial in range(200):
        field = QQ if trial % 2 else F5
        dim = rng.choice([2, 3, 4])
        maps = [MultiMap(field, random_tensor(
            (dim,) * rng.choice([1, 2]) + (dim,), field, rng))
            for _ in range(3)]
        f, g, h = maps
        sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
        anti = g_bracket(f, g) + g_bracket(g, f).scale(field.from_int(sign))
        assert anti.is_zero_map()
        assert jacobi_residual(f, g, h).is_zero_map()
        lhs = g_bracket(f, g_bracket(g, h))
        rhs = g_bracket(g_bracket(f, g), h) + \
            g_bracket(g, g_bracket(f, h)).scale(field.from_int(sign))
        assert tensors_equal(lhs.tensor, rhs.tensor)
        triples += 1

    square_checked = 0
    associative_seen = 0
    for trial in range(100):
        field = QQ if trial % 2 else F5
        dim = rng.choice([2, 3])
        if trial % 5 == 0:
            # salt the sample with genuinely associative structures
            tensor = kx2(field).c if dim == 2 else zeros((3, 3, 3), field)
            dim = tensor.shape[0]
        else:
            tensor = random_tensor((dim, dim, dim), field, rng)
        S = MultiMap(field, tensor)
        assert g_bracket(S, S).is_zero_map() == \
            bool(assoc_check(Encoded.of(field, tensor)))
        associative_seen += bool(assoc_check(Encoded.of(field, tensor)))
        square_checked += 1
    report(5, triples == 200 and square_checked == 100 and associative_seen,
           f"graded antisymmetry/Jacobi/Leibniz on {triples} random triples; "
           f"[S,S]=0 <-> associativity on {square_checked} random products "
           f"({associative_seen} associative)")


def test_criterion_6_hochschild():
    checked = 0
    for name, A in catalog_algebras():
        rng = random.Random(hash(name) & 0xFFFF)
        M = canonical_bimodule(A)
        for i in range(100):
            arity = 1 + (i % 2)
            phi = Cochain(A, M, random_tensor(
                (A.dim,) * arity + (M.dim,), A.field, rng))
            assert coboundary(coboundary(phi)).is_zero_map(), name
            checked += 1

    A = kx2(QQ)
    M = canonical_bimodule(A)
    rng = random.Random(601)
    equiv = cocycles = noncocycles = 0
    for trial in range(100):
        tensor = random_tensor((2, 2, 2), QQ, rng)
        if trial % 2:
            tensor = coboundary(Cochain(A, M, random_tensor((2, 2), QQ, rng))).tensor
        phi = Cochain(A, M, tensor)
        cocycle_report = is_cocycle(phi)
        assoc_report = assoc_check(extension(A, M, tensor))
        assert bool(cocycle_report) == bool(assoc_report)
        if cocycle_report:
            cocycles += 1
        else:
            noncocycles += 1
            assert cocycle_report.witness is not None
            assert assoc_report.witness is not None
        equiv += 1
    report(6, checked == 500 and equiv == 100 and cocycles and noncocycles,
           f"d o d = 0 on {checked} random cochains; twisted extension "
           f"associative <-> cocycle on {equiv} random 2-cochains "
           f"({cocycles} cocycles, {noncocycles} witnesses)")


def test_criterion_7_weyl_window():
    w = truncated_weyl(8)
    pairs = 0
    for i, j, k, l in itertools.product(range(4), repeat=4):
        a, b = WeylPoly.monomial(i, j), WeylPoly.monomial(k, l)
        assert w.rb_identity_holds(a, b), (i, j, k, l)
        assert w.dual_grb_identity_holds(a, b), (i, j, k, l)
        assert w.nijenhuis_identity_holds(a, b), (i, j, k, l)
        pairs += 1
    recovered = 0
    for (i, j) in w.basis:
        if i + j + 1 <= w.degree:
            assert w.commutator_recovers(WeylPoly.monomial(i, j))
            recovered += 1
    report(7, pairs == 256 and recovered > 0,
           f"Weyl window: integral Rota-Baxter identity, ad_x duality and "
           f"Nijenhuis identity on {pairs} pairs; [x, int(.)dy] = id on "
           f"{recovered} monomials")


def _flow_clauses(inst):
    theta = extension_mult_map(inst)
    p_hat = lift_operator(inst)
    x = theta
    for _ in range(4):
        x = g_bracket(x, p_hat)
    assert x.is_zero_map()                                     # (i)
    flow = exp_flow(inst)
    assert g_bracket(flow.total, flow.total).is_zero_map()     # (ii)
    T = identity(inst.ext_dim, inst.field) + p_hat.tensor
    assert intertwiner_check(T, flow.total, flow.theta)        # (iii)
    addexp = bool(addexp_check(inst))
    checker = is_trb if inst.cocycle is not None else is_grb
    assert addexp == bool(checker(inst))                       # (iv)
    # (v): the truncated flow restricted to M-pairs is the induced product
    truncated = flow_truncation(inst)
    dA = inst.algebra.dim
    M, p, field = inst.module, inst.op, inst.field
    for i in range(M.dim):
        for j in range(M.dim):
            got = truncated.tensor[dA + i, dA + j]
            induced = induced_product(p, M.left, M.right, i, j, field)
            if inst.cocycle is not None:
                induced = add(induced, bilinear(inst.cocycle.tensor,
                                                p[i], p[j], field))
            assert is_zero(got[:dA]) and tensors_equal(got[dA:], induced)
    if addexp and inst.cocycle is None:
        times = total_product(dendriform_from_grb(inst))
        block = flow.total.tensor[dA:, dA:, dA:]
        assert tensors_equal(block, times.c)
    return addexp


def test_criterion_8_flow_corollary():
    candidates = rb_candidates = 0
    for name, A, M in enumeration_pairs():
        for mat in enumerate_operators(A, M):
            inst = OperatorInstance(A, M, mat)
            rb_candidates += _flow_clauses(inst)
            candidates += 1
    for name, inst in catalog_trb_instances().items():
        assert _flow_clauses(inst), name
        candidates += 1
    report(8, candidates == 16 * 3 + 81 + 4,
           f"flow corollary clauses (i)-(v) on {candidates} operators "
           f"({rb_candidates} enumerated Rota-Baxter)")


def test_criterion_9_yang_baxter():
    from rbx.instances import null_algebra

    total = skew_solutions = 0
    for A in (kx2(F2), null_algebra(F2, 2)):
        for entries in itertools.product(elements(F2), repeat=4):
            r = np.array(entries, dtype=object).reshape(2, 2)
            residual = aybe_residual(A, r)
            oracle = aybe_oracle(A, r)
            for u in range(2):
                for v in range(2):
                    for t in range(2):
                        assert residual[u, v, t] == oracle[u][v][t]
            total += 1
            if not is_zero(r + r.T) or not is_zero(residual):
                continue
            inst = r_tilde(A, r)
            assert bimodule_check(A, inst.module)
            assert is_grb(inst)
            skew_solutions += 1
    report(9, total == 32 and skew_solutions > 0,
           f"Yang-Baxter residuals match the independent expansion on "
           f"{total} tensors over two algebras; all {skew_solutions} skew "
           f"solutions give Rota-Baxter operators on the dual module")


def test_criterion_10_twisted_structure_equation():
    instances = dict(catalog_trb_instances())
    # negative cases: operators that are not (twisted) Rota-Baxter
    A = kx2(QQ)
    M = canonical_bimodule(A)
    instances["identity-plain"] = OperatorInstance(A, M, identity(2, QQ))
    swap_phi = catalog_trb_instances()["swap-cochain"].cocycle
    instances["identity-with-swap-twist"] = OperatorInstance(
        A, M, identity(2, QQ), swap_phi)
    instances["mult-by-x"] = mult_by_x_instance(QQ)
    instances["truncated-poly"] = truncated_polynomial(4)

    twisted_count = holds = fails = 0
    for name, inst in instances.items():
        residual_zero = structure_residual(inst).is_zero_map()
        checker = is_trb if inst.cocycle is not None else is_grb
        verdict = bool(checker(inst))
        assert residual_zero == verdict, name
        holds += verdict
        fails += not verdict
        if inst.cocycle is not None:
            p_hat = lift_operator(inst)
            phi_hat = lift_cocycle(inst)
            triple = g_bracket(g_bracket(g_bracket(phi_hat, p_hat), p_hat), p_hat)
            lhs = twist_insertion(inst)
            assert tensors_equal(lhs.tensor,
                                 triple.scale(Fraction(-1, 6)).tensor), name
            twisted_count += 1
    report(10, holds and fails and twisted_count >= 5,
           f"structure residual = 0 <-> operator identity on "
           f"{len(instances)} rational instances ({holds} hold, {fails} "
           f"fail); sixth-bracket insertion identity on {twisted_count} "
           f"twisted instances")
