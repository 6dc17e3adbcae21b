"""Hamiltonian vector fields and exponential flows on A (+) M.

For a lift p^ (which always satisfies p^ o p^ = 0), the field
X(Theta) = [Theta, p^] is nilpotent on arity-2 maps: X^4 = 0.  The flow

    exp(X)(Theta) = Theta + [Theta,p^] + (1/2)X^2(Theta) + (1/6)X^3(Theta)

is therefore a finite sum.  `gerstenhaber.half_square` gives the half
term and the insertions the other two are built from, without dividing:

    [Theta, p^]     = Theta o_1 p^ + Theta o_2 p^ - p^ o_1 Theta
    (1/6)X^3(Theta) = -p^ Theta(p^ (x) p^)

The test suite checks them against the scaled brackets over Q and F5.
"""

from __future__ import annotations

from .algebra import Verdict
from .errors import InputError
from .gerstenhaber import MultiMap, circ_i, g_bracket, half_square
from .linalg import first_difference
from .operators import (OperatorInstance, extension_mult_map,
                        induced_products, lift_cocycle, lift_operator)


class FlowResult:
    """The four flow terms and their sum, all arity-2 MultiMaps."""

    def __init__(self, theta, order1, order2, order3, total):
        self.theta = theta      # Theta itself
        self.order1 = order1    # [Theta, p^]
        self.order2 = order2    # (1/2) X^2(Theta)
        self.order3 = order3    # (1/6) X^3(Theta)
        self.total = total


def hamiltonian_field(theta: MultiMap, inst: OperatorInstance) -> MultiMap:
    """X(theta) = [theta, p^] via the bracket engine."""
    return g_bracket(theta, lift_operator(inst))


def exp_flow(inst: OperatorInstance, theta: MultiMap | None = None) -> FlowResult:
    """exp(X)(Theta) for Theta = mu^ + phi^ by default."""
    if theta is None:
        theta = extension_mult_map(inst)
    if theta.arity != 2 or theta.dim != inst.ext_dim:
        raise InputError("flow needs an arity-2 map on A (+) M")
    p_hat = lift_operator(inst)
    if not circ_i(p_hat, p_hat, 1).is_zero_map():
        raise InputError("lift does not square to zero")
    order2, first, second, both = half_square(theta, p_hat)
    order1 = _first_order(theta, p_hat, first, second)
    order3 = -circ_i(p_hat, both, 1)
    total = theta + order1 + order2 + order3
    return FlowResult(theta, order1, order2, order3, total)


def _first_order(theta, p_hat, first, second):
    """[theta, p^] from the insertions theta o_1 p^ and theta o_2 p^."""
    return first + second - circ_i(p_hat, theta, 1)


def _truncation(inst, theta, order1, p_hat):
    """theta + [theta, p^], plus (1/2)[[phi^,p^],p^] when twisted."""
    truncated = theta + order1
    if inst.cocycle is not None:
        truncated = truncated + half_square(lift_cocycle(inst), p_hat)[0]
    return truncated


def flow_truncation(inst: OperatorInstance) -> MultiMap:
    """The three-term flow mu^ + phi^ + [mu^+phi^, p^] + (1/2)[[phi^,p^],p^]
    that characterizes twisted Rota-Baxter operators."""
    theta = extension_mult_map(inst)
    p_hat = lift_operator(inst)
    order1 = _first_order(theta, p_hat, circ_i(theta, p_hat, 1),
                          circ_i(theta, p_hat, 2))
    return _truncation(inst, theta, order1, p_hat)


def addexp_check(inst: OperatorInstance) -> Verdict:
    """Does the full flow collapse to its three-term truncation?  True
    exactly for (twisted) Rota-Baxter operators.  On success the M x M
    restriction of the flow is the induced product m x n =
    p(m).n + m.p(n) [+ phi(p(m),p(n))], which is verified as well."""
    flow = exp_flow(inst)
    # the truncation's first two terms are the flow's own
    truncated = _truncation(inst, flow.theta, flow.order1, lift_operator(inst))
    report = Verdict.compare(flow.total._tensor, truncated._tensor, 3,
                             detail="flow does not truncate; operator is not "
                                    "(twisted) Rota-Baxter")
    if not report:
        return report
    dA = inst.algebra.dim
    succ, prec, vee = induced_products(inst)
    induced = succ + prec if vee is None else succ + prec + vee
    # [i, j, :] of the flow on (m_i, m_j): zero A-block, then the product
    block = flow.total._tensor[dA:, dA:]
    product = block[..., dA:]
    bad = first_difference([(block[..., :dA], None), (product, induced)], 2)
    if bad is None:
        return Verdict(True)
    if bad[2] == 0:
        return Verdict(False, bad[:2], detail="flow leaks into the A-block")
    return Verdict(False, bad[:2], lhs=product.at(bad[:2]),
                   rhs=induced.at(bad[:2]),
                   detail="M-restriction differs from the induced product")
