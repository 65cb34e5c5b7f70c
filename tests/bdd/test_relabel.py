"""The reference kernel's level-relabel ``replace`` and the one-pass
``cube_union`` constructor, against the compositions they replace.

- ``BDDManager.replace`` rebuilds each node with one ``mk`` at its new
  level when that level stays above both rebuilt children, and falls
  back to the fused ``_ite_var`` otherwise.  The oracle is the ITE
  composition it replaced (every node rebuilt as ``ITE(new variable,
  high, low)``), run in the same manager: canonicity makes the two
  results the same node.  Monotone moves, arbitrary injective moves,
  domain swaps and moves onto variables that stay put are covered,
  after ``sift``/``set_order`` and under tiny ``cache_limit`` values.
- ``cube_union`` must equal the per-row fold ``OR(cube(row), ...)`` on
  the reference, arena and out-of-core kernels (the latter capped and
  uncapped), and all of them must agree wire for wire.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BDDError, BDDManager
from repro.bdd.arena import _RECURSION_SAFE_VARS, ArenaBDDManager
from repro.bdd.io import dumps_diagram_binary
from repro.bdd.ooc import OocBDDManager

N_VARS = 6

#: Every ooc byte budget at its floor: maximum spill traffic.
TINY_CAP = 1

exprs = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=N_VARS - 1).map(lambda v: ("var", v)),
        st.sampled_from([("const", False), ("const", True)]),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["and", "or", "diff", "xor"]), sub, sub),
        st.tuples(st.just("not"), sub),
    ),
    max_leaves=16,
)


def build(m, expr):
    tag = expr[0]
    if tag == "var":
        return m.var(expr[1])
    if tag == "const":
        return TRUE if expr[1] else FALSE
    if tag == "not":
        return m.apply_not(build(m, expr[1]))
    a = build(m, expr[1])
    b = build(m, expr[2])
    return {
        "and": m.apply_and,
        "or": m.apply_or,
        "diff": m.apply_diff,
        "xor": m.apply_xor,
    }[tag](a, b)


def ite_replace(m, a, permutation):
    """``replace`` as the reference kernel used to compute it: every
    node rebuilt as ``ITE(variable at its new level, high, low)``."""
    perm = {
        m.level_of_var(old): m.level_of_var(new)
        for old, new in permutation.items()
        if old != new
    }
    memo = {}

    def rec(node):
        if m.is_terminal(node):
            return node
        if node not in memo:
            level = m.level_of(node)
            new = perm.get(level, level)
            memo[node] = m.ite(
                m.var(m.var_at_level(new)),
                rec(m.high(node)),
                rec(m.low(node)),
            )
        return memo[node]

    return rec(a)


def _monotone(data, support):
    targets = sorted(
        data.draw(
            st.lists(
                st.integers(0, N_VARS - 1),
                min_size=len(support),
                max_size=len(support),
                unique=True,
            )
        )
    )
    return dict(zip(support, targets))


def _injective(data, support):
    targets = data.draw(st.permutations(range(N_VARS)))
    return dict(zip(support, targets))


def _swap(data, support):
    # Exchange two disjoint blocks of variables, the way Jedd swaps the
    # contents of two physical domains.
    width = data.draw(st.integers(1, N_VARS // 2))
    order = data.draw(st.permutations(range(N_VARS)))
    left, right = order[:width], order[width : 2 * width]
    perm = dict(zip(left, right))
    perm.update(zip(right, left))
    return perm


def _partial(data, support):
    # Move only some variables, possibly onto a support variable that
    # stays put: the rebuilt child may then sit at the new level itself.
    sources = data.draw(
        st.lists(st.integers(0, N_VARS - 1), min_size=1, unique=True)
    )
    targets = data.draw(st.permutations(range(N_VARS)))
    return dict(zip(sources, targets))


MOVES = {
    "monotone": _monotone,
    "injective": _injective,
    "swap": _swap,
    "partial": _partial,
}


@settings(deadline=None, max_examples=150)
@given(
    exprs_=st.lists(exprs, min_size=1, max_size=4),
    move=st.sampled_from(sorted(MOVES)),
    reorder=st.sampled_from([None, "sift", "set_order"]),
    cache_limit=st.sampled_from([None, 1, 3, 16]),
    data=st.data(),
)
def test_replace_equals_ite_composition(exprs_, move, reorder, cache_limit, data):
    m = BDDManager(num_vars=N_VARS, cache_limit=cache_limit)
    roots = [m.ref(build(m, expr)) for expr in exprs_]
    if reorder == "sift":
        m.sift()
    elif reorder == "set_order":
        m.set_order(data.draw(st.permutations(range(N_VARS))))
    for root in roots:
        support = sorted(m.support(root))
        perm = MOVES[move](data, support)
        got = m.replace(root, perm)
        assert got == ite_replace(m, root, perm)
        # Asked again, the per-node cache (or its cleared remains under
        # a tiny cache_limit) must hand back the same node.
        assert m.replace(root, perm) == got
    m.check_integrity()


def test_replace_leaves_unmoved_subdiagram_shared():
    m = BDDManager(num_vars=N_VARS)
    low_part = m.apply_xor(m.var(4), m.var(5))
    a = m.apply_and(m.var(0), low_part)
    moved = m.replace(a, {0: 1})
    assert m.low(moved) == FALSE and m.high(moved) == low_part
    assert moved == ite_replace(m, a, {0: 1})


@pytest.mark.parametrize("perm", [{0: 2}, {0: 5}, {0: 2, 2: 0}, {2: 0}])
@pytest.mark.parametrize("lo, hi", [(2, 5), (5, 2)])
def test_replace_onto_a_variable_that_stays(perm, lo, hi):
    # x0 ? x_hi : x_lo: moving x0 onto x2 puts the rebuilt child that
    # tests x2 at the new level itself.
    m = BDDManager(num_vars=N_VARS)
    a = m.ite(m.var(0), m.var(hi), m.var(lo))
    assert m.replace(a, perm) == ite_replace(m, a, perm)
    m.check_integrity()


def test_replace_rejects_non_injective():
    m = BDDManager(num_vars=N_VARS)
    with pytest.raises(BDDError, match="injective"):
        m.replace(m.var(0), {0: 2, 1: 2})


# ----------------------------------------------------------------------
# cube_union
# ----------------------------------------------------------------------

KERNELS = {
    "reference": lambda n: BDDManager(num_vars=n),
    "arena": lambda n: ArenaBDDManager(num_vars=n),
    "ooc": lambda n: OocBDDManager(num_vars=n),
    "ooc-capped": lambda n: OocBDDManager(num_vars=n, memory_cap_bytes=TINY_CAP),
}


def fold(m, rows):
    node = FALSE
    for row in rows:
        node = m.apply_or(node, m.cube(row))
    return node


def assert_bulk_equals_fold(rows, n=N_VARS, order=None):
    wires = set()
    for name, make in KERNELS.items():
        m = make(n)
        if order is not None:
            m.set_order(order)
        bulk = m.cube_union(iter(rows))
        assert bulk == fold(m, rows), name
        wires.add(dumps_diagram_binary(m, bulk))
        m.check_integrity()
    assert len(wires) == 1


row_sets = st.sets(
    st.integers(0, N_VARS - 1), min_size=0, max_size=N_VARS
).flatmap(
    lambda vs: st.lists(
        st.tuples(*[st.booleans() for _ in vs]).map(
            lambda bits, vs=sorted(vs): dict(zip(vs, bits))
        ),
        max_size=20,
    )
)


@settings(deadline=None, max_examples=60)
@given(rows=row_sets, reorder=st.booleans(), data=st.data())
def test_cube_union_equals_fold(rows, reorder, data):
    order = data.draw(st.permutations(range(N_VARS))) if reorder else None
    assert_bulk_equals_fold(rows, order=order)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [{}],
        [{2: True}],
        [{0: True, 3: False}, {0: True, 3: False}, {0: False, 3: False}],
        [{v: bool(bits >> v & 1) for v in range(N_VARS)}
         for bits in range(2**N_VARS)],
        [{v: bool(bits >> v & 1) for v in range(N_VARS)}
         for bits in range(0, 2**N_VARS, 3)],
    ],
    ids=["empty", "no-vars", "one-row", "duplicates", "every-row", "every-bit"],
)
def test_cube_union_cases(rows):
    assert_bulk_equals_fold(rows)


def test_cube_union_full_table_is_true():
    m = BDDManager(num_vars=3)
    rows = [{v: bool(b >> v & 1) for v in range(3)} for b in range(8)]
    assert m.cube_union(rows) == TRUE
    assert m.cube_union([]) == FALSE


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_cube_union_rejects_mixed_variable_sets(kernel):
    m = KERNELS[kernel](N_VARS)
    with pytest.raises(BDDError, match="different variables"):
        m.cube_union([{0: True, 1: False}, {0: True, 2: False}])
    with pytest.raises(BDDError, match="different variables"):
        m.cube_union([{0: True}, {0: True, 1: True}])
    with pytest.raises(BDDError):
        m.cube_union([{N_VARS: True}])


def test_cube_union_deep_manager():
    """Past the arena's recursion gate the construction stays
    iterative and equal to the fold on every kernel."""
    import random

    n = _RECURSION_SAFE_VARS + 50
    rng = random.Random(7)
    chosen = rng.sample(range(n), 60)
    rows = [{v: rng.random() < 0.5 for v in chosen} for _ in range(12)]
    assert_bulk_equals_fold(rows, n=n)
