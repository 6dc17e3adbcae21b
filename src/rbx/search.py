"""Exhaustive search over prime fields for the operators of
`operators`: every candidate of a kind, in lexicographic order of its
flattened entries, kept when the kind's identity holds.

The search (`search_rows`) evaluates the identities of `operators`
(`_identity_sides`, `_aybe_residual`) on blocks of candidates, which
fill their leading batch axes.  It walks a tree of partial candidates:
it assigns the flattened entries depth-first, in lexicographic order,
and drops a prefix as soon as a residual entry that the assigned
entries decide is nonzero mod p (backtracking with forward checking).
Which entries a residual entry reads comes from the same contractions,
run once on the 0/1 nonzero patterns of the structure tensors with
every term added (`_decided`); no identity is written twice.  It builds
its blocks on the pure kernel when the dense work of its whole box is
at most `linalg.PURE_WORK`, and on int64 numpy otherwise, and returns
the passing candidates as one Encoded stack.  Only `rbx search` and
`operators.search_operators` load this module.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice, product

from .algebra import Algebra, Bimodule, canonical_bimodule
from .errors import CapacityError, InputError
from . import linalg
from .fields import QQ
from .linalg import Encoded, IntTensor, _np, combine, embed, to_pure
from .operators import OperatorInstance, _aybe_residual, _identity_sides

SEARCH_BUDGET = 2 ** 20

_CHECKERS = ("grb", "rb", "trb", "reynolds", "nijenhuis", "aybe")

SEARCH_BLOCK = 4096            # candidates decided per contraction, at most
BLOCK_ENTRIES = 2 ** 20        # entries of a block's largest tensor, at most,
                               # unless one candidate's alone is larger


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
    """The passing candidates of `operators.search_operators` as one
    Encoded stack of shape (solutions, *candidate shape), over scale 1,
    on an IntTensor of canonical representatives.  A space of p^n >= 2^63
    candidates, past the int64 candidate index, is refused whatever the
    budget.  Kind trb needs the twist `cocycle`, and every other kind
    refuses one.

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
    times one candidate's, is at most `linalg.PURE_WORK`, or that runs
    where numpy does not import, builds its blocks on the pure kernel;
    any other builds int64 numpy blocks, so its products run there.
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
        twist is not None) <= linalg.PURE_WORK or not linalg.has_numpy()
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
