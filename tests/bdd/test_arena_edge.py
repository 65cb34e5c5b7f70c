"""Fault-injection and edge-case tests for the arena kernel.

The arena kernel's failure modes are structural, not semantic: numpy
arrays that reallocate mid-operation (growth), recursion limits (deep
managers), cache eviction mid-frontier, and the lazily rebuilt
reorder-support indexes.  Each test here pins one of those seams,
always with the reference kernel (or the kernel's own
``check_integrity``) as the oracle.
"""

import random
import sys

import numpy as np
import pytest

from repro.bdd import FALSE, TRUE, BDDManager
from repro.bdd import arena
from repro.bdd.arena import ArenaBDDManager
from repro.bdd.io import dumps_diagram_binary


def random_forest(m, rng, n_vars, rounds=60):
    """Grow a forest of diagrams with a deterministic operation mix."""
    pool = [m.var(v) for v in range(min(n_vars, 8))]
    for _ in range(rounds):
        op = rng.randrange(4)
        a = rng.choice(pool)
        b = rng.choice(pool)
        if op == 0:
            pool.append(m.apply_and(a, b))
        elif op == 1:
            pool.append(m.apply_or(a, b))
        elif op == 2:
            pool.append(m.apply_diff(a, b))
        else:
            vs = rng.sample(range(n_vars), rng.randint(1, min(4, n_vars)))
            pool.append(m.exist(a, vs))
        if len(pool) > 12:
            pool.pop(0)
    return pool


def assert_forest_equal(m_ref, pool_ref, m_arena, pool_arena):
    for r, a in zip(pool_ref, pool_arena):
        assert dumps_diagram_binary(m_ref, r) == dumps_diagram_binary(
            m_arena, a
        )


@pytest.mark.parametrize("capacity", [4, 8])
def test_table_resize_mid_apply(capacity, monkeypatch):
    """Node arrays must grow (reallocate) many times inside running
    operations without stale-array reads corrupting results."""
    n_vars = 12
    rng_r = random.Random(7)
    rng_a = random.Random(7)
    m_ref = BDDManager(num_vars=n_vars)
    monkeypatch.setattr(arena, "_VECTOR_THRESHOLD", 4)
    m_arena = ArenaBDDManager(num_vars=n_vars, initial_capacity=capacity)
    pool_ref = random_forest(m_ref, rng_r, n_vars)
    pool_arena = random_forest(m_arena, rng_a, n_vars)
    assert m_arena._capacity > capacity  # growth actually happened
    assert_forest_equal(m_ref, pool_ref, m_arena, pool_arena)
    m_arena.check_integrity()


def test_deep_chain_no_recursion_error():
    """Apply/exist over diagrams thousands of levels deep: the
    breadth-first engine must never touch the interpreter stack."""
    n_vars = 3000
    assert n_vars > sys.getrecursionlimit() * 2
    m = ArenaBDDManager(num_vars=n_vars)
    rng = random.Random(3)
    bits = {v: rng.random() < 0.5 for v in range(0, n_vars, 2)}
    a = m.cube(bits)
    bits2 = {v: rng.random() < 0.5 for v in range(1, n_vars, 2)}
    b = m.cube(bits2)
    conj = m.apply_and(a, b)
    assert m.node_count(conj) >= n_vars - 2
    # Quantify away every other variable of the deep chain.
    vs = list(range(0, n_vars, 4))
    ex = m.exist(conj, vs)
    assert m.node_count(ex) > 0
    # sat_count on a 3000-level chain is a big-int stress in itself.
    assert m.sat_count(conj) == 1 << (n_vars - len(bits) - len(bits2))
    m.check_integrity()


def test_empty_and_constant_operands():
    m = ArenaBDDManager(num_vars=6)
    v = m.var(2)
    assert m.apply_and(FALSE, v) == FALSE
    assert m.apply_and(TRUE, v) == v
    assert m.apply_or(FALSE, v) == v
    assert m.apply_or(TRUE, v) == TRUE
    assert m.apply_diff(v, TRUE) == FALSE
    assert m.apply_diff(v, FALSE) == v
    assert m.apply_xor(v, v) == FALSE
    assert m.exist(FALSE, [0, 1]) == FALSE
    assert m.exist(TRUE, [0, 1]) == TRUE
    assert m.and_exist(v, FALSE, [2]) == FALSE
    assert m.and_exist(v, TRUE, [2]) == TRUE
    assert m.replace(FALSE, {0: 1}) == FALSE
    assert m.replace(TRUE, {0: 1}) == TRUE
    assert m.sat_count(FALSE) == 0
    assert m.sat_count(TRUE) == 1 << 6
    assert m.node_count(FALSE) == 0
    assert m.support(TRUE) == frozenset()
    assert m.shape(FALSE) == [0] * 6
    # Batch entry points with zero-length request vectors.
    empty = np.empty(0, np.int64)
    assert len(m.mk_many(0, empty, empty)) == 0
    from repro.bdd.manager import _OP_AND

    assert len(m._apply_many(_OP_AND, empty, empty)) == 0


def test_cache_limit_eviction_parity(monkeypatch):
    """A tiny cache_limit forces evictions mid-run on both kernels;
    results must still be canonical and identical."""
    n_vars = 10
    rng_r = random.Random(11)
    rng_a = random.Random(11)
    m_ref = BDDManager(num_vars=n_vars, cache_limit=64)
    monkeypatch.setattr(arena, "_VECTOR_THRESHOLD", 4)
    m_arena = ArenaBDDManager(num_vars=n_vars, cache_limit=64)
    pool_ref = random_forest(m_ref, rng_r, n_vars, rounds=120)
    pool_arena = random_forest(m_arena, rng_a, n_vars, rounds=120)
    assert_forest_equal(m_ref, pool_ref, m_arena, pool_arena)


def test_gc_then_reuse_slots(monkeypatch):
    """Freed slots are recycled by both scalar mk and mk_many without
    leaving stale unique-table or level-index entries behind."""
    monkeypatch.setattr(arena, "_VECTOR_THRESHOLD", 4)
    m = ArenaBDDManager(num_vars=8, initial_capacity=8)
    rng = random.Random(5)
    for round_ in range(6):
        pool = random_forest(m, rng, 8, rounds=30)
        keep = pool[-2:]
        kept = [m.ref(n) for n in keep]
        freed = m.gc()
        for n in kept:
            m.deref(n)
        if round_ > 0:
            assert freed >= 0
        m.check_integrity()


def test_sift_after_lazy_index_rebuild(monkeypatch):
    """Sifting must see a correct level index and parent counters even
    though the hot path never maintains them (lazy rebuild on entry)."""
    n_vars = 8
    rng = random.Random(13)
    monkeypatch.setattr(arena, "_VECTOR_THRESHOLD", 4)
    m = ArenaBDDManager(num_vars=n_vars)
    pool = random_forest(m, rng, n_vars, rounds=40)
    held = [m.ref(n) for n in pool]
    before = [dumps_diagram_binary(m, n) for n in pool]
    m.sift()
    m.check_integrity()
    m.set_order(list(range(n_vars)))
    m.check_integrity()
    after = [dumps_diagram_binary(m, n) for n in pool]
    assert before == after  # original order restored -> same tables
    for h in held:
        m.deref(h)


def test_swap_levels_interleaved_with_batches(monkeypatch):
    """Adjacent swaps between batched operations: the lazily rebuilt
    index must stay coherent across repeated enter/exit cycles."""
    n_vars = 6
    monkeypatch.setattr(arena, "_VECTOR_THRESHOLD", 2)
    m = ArenaBDDManager(num_vars=n_vars)
    rng = random.Random(17)
    pool = random_forest(m, rng, n_vars, rounds=20)
    held = [m.ref(n) for n in pool]
    sizes = []
    for lvl in [0, 2, 4, 3, 1, 0]:
        sizes.append(m.swap_levels(lvl))
        pool.append(m.apply_or(rng.choice(pool), rng.choice(pool)))
        m.check_integrity()
    assert all(s > 0 for s in sizes)
    for h in held:
        m.deref(h)
