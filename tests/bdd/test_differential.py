"""Randomized differential testing across every kernel and backend.

Each *chain* builds the same random relational program five ways -- on
the reference BDD kernel, on the vectorized arena BDD kernel
(:mod:`repro.bdd.arena`), on the out-of-core streaming kernel
(:mod:`repro.bdd.ooc`), on the ZDD backend, and against a plain-Python
oracle that stores relations as sets of ``{attribute: value}`` rows --
and asserts they all agree on the exact tuple set after every
operation.  Between the three BDD kernels the check is stronger than
tuple-set equality: hash-consing makes reduced ordered BDDs canonical,
so under the same variable order all of them must build *node-for-node
identical* diagrams.  The harness asserts that by comparing serialized
wire bytes (:func:`repro.bdd.io.dumps_diagram_binary`) after every
operation.

The suite runs each chain twice, with automatic variable reordering off
and on, so sifting is proven semantics-preserving under real operation
mixes (not just on static diagrams) for every kernel.

Chains are seeded by index: on the first divergence the harness prints
a one-line replay recipe (seed + chain index + which pair of
implementations disagreed; see :mod:`tests.bdd._repro`), and
``JEDD_DIFF_SEED=<seed> pytest ... -k replay`` reruns exactly the
failing chain.
"""

import os
import random

import pytest

from repro.bdd.io import dumps_diagram_binary
from repro.relations import Relation, Universe

from tests.bdd._repro import REPLAY_ENV, repro_line

ATTRS = ["a", "b", "c", "d", "e", "f"]
PHYSDOMS = ["P1", "P2", "P3", "P4", "P5", "P6"]
DOMAIN_SIZE = 8

#: chains per (backend-comparison, reorder-mode); the tier-1 run does
#: 2 x 500 = 1000 randomized chains, the stress jobs add longer ones.
N_CHAINS = 500
N_CHAINS_STRESS = 250
OPS_PER_CHAIN = 6
OPS_PER_CHAIN_STRESS = 14

THIS_FILE = "tests/bdd/test_differential.py"

#: Context for repro lines, set by run_chain for the duration of a
#: chain so assertion sites can emit a replayable recipe.
_CTX = {"seed": 0, "chain_index": 0, "reorder": False}


def _repro(pair: str) -> str:
    return repro_line(
        THIS_FILE,
        _CTX["seed"],
        _CTX["chain_index"],
        pair,
        _CTX["reorder"],
    )


def build_universe(backend, kernel="reference"):
    u = Universe(backend=backend, ordering="sequential", kernel=kernel)
    dom = u.domain("D", DOMAIN_SIZE)
    for name in ATTRS:
        u.attribute(name, dom)
    for name in PHYSDOMS:
        u.physical_domain(name, dom.bits)
    u.finalize()
    for v in range(DOMAIN_SIZE):
        dom.intern(v)
    return u


class Oracle:
    """A relation as a set of attribute->value rows."""

    def __init__(self, attrs, rows):
        self.attrs = frozenset(attrs)
        self.rows = {frozenset(r.items()) for r in rows}

    @classmethod
    def from_tuples(cls, attrs, tuples_):
        return cls(
            attrs, [dict(zip(attrs, row)) for row in tuples_]
        )

    def _binop(self, other, fn):
        assert self.attrs == other.attrs
        return Oracle(self.attrs, [dict(r) for r in fn(self.rows, other.rows)])

    def union(self, other):
        return self._binop(other, lambda a, b: a | b)

    def intersect(self, other):
        return self._binop(other, lambda a, b: a & b)

    def difference(self, other):
        return self._binop(other, lambda a, b: a - b)

    def project_away(self, *names):
        keep = self.attrs - set(names)
        return Oracle(
            keep,
            [{k: v for k, v in dict(r).items() if k in keep}
             for r in self.rows],
        )

    def rename(self, mapping):
        return Oracle(
            frozenset(mapping.get(a, a) for a in self.attrs),
            [
                {mapping.get(k, k): v for k, v in dict(r).items()}
                for r in self.rows
            ],
        )

    def join(self, other, self_attr, other_attr):
        out = []
        for r1 in self.rows:
            d1 = dict(r1)
            for r2 in other.rows:
                d2 = dict(r2)
                if d1[self_attr] == d2[other_attr]:
                    merged = dict(d1)
                    merged.update(
                        {k: v for k, v in d2.items() if k != other_attr}
                    )
                    out.append(merged)
        attrs = self.attrs | (other.attrs - {other_attr})
        return Oracle(attrs, out)

    def compose(self, other, self_attr, other_attr):
        out = []
        for r1 in self.rows:
            d1 = dict(r1)
            for r2 in other.rows:
                d2 = dict(r2)
                if d1[self_attr] == d2[other_attr]:
                    merged = {
                        k: v for k, v in d1.items() if k != self_attr
                    }
                    merged.update(
                        {k: v for k, v in d2.items() if k != other_attr}
                    )
                    out.append(merged)
        attrs = (self.attrs - {self_attr}) | (other.attrs - {other_attr})
        return Oracle(attrs, out)

    def select(self, values):
        return Oracle(
            self.attrs,
            [
                dict(r)
                for r in self.rows
                if all(dict(r).get(k) == v for k, v in values.items())
            ],
        )

    def tuple_set(self, names):
        return {
            tuple(dict(r)[n] for n in names) for r in self.rows
        }


class Quint:
    """The same relation on all three BDD kernels, the ZDD engine, and
    the oracle."""

    def __init__(self, ref, arena, ooc, zdd, oracle):
        self.ref = ref
        self.arena = arena
        self.ooc = ooc
        self.zdd = zdd
        self.oracle = oracle

    def check(self):
        names = self.ref.schema.names()
        expected = self.oracle.tuple_set(names)
        got_ref = set(self.ref.tuples())
        assert got_ref == expected, (
            f"reference-BDD diverged from oracle over {names}: "
            f"extra={got_ref - expected}, missing={expected - got_ref}\n"
            + _repro("reference-bdd vs oracle")
        )
        got_arena = set(self.arena.tuples())
        assert got_arena == expected, (
            f"arena-BDD diverged from oracle over {names}: "
            f"extra={got_arena - expected}, "
            f"missing={expected - got_arena}\n"
            + _repro("arena-bdd vs oracle")
        )
        got_ooc = set(self.ooc.tuples())
        assert got_ooc == expected, (
            f"ooc-BDD diverged from oracle over {names}: "
            f"extra={got_ooc - expected}, "
            f"missing={expected - got_ooc}\n"
            + _repro("ooc-bdd vs oracle")
        )
        znames = self.zdd.schema.names()
        got_zdd = {
            tuple(row[znames.index(n)] for n in names)
            for row in self.zdd.tuples()
        }
        assert got_zdd == expected, (
            f"ZDD backend diverged from oracle over {names}: "
            f"extra={got_zdd - expected}, missing={expected - got_zdd}\n"
            + _repro("zdd vs oracle")
        )
        assert self.ref.size() == len(expected)
        assert self.arena.size() == len(expected)
        assert self.ooc.size() == len(expected)
        assert self.zdd.size() == len(expected)
        # Canonicity: under the same variable order, both BDD kernels
        # must hold node-for-node identical diagrams, not merely the
        # same tuple set.  Identical inputs drive identical (size
        # triggered, deterministic) sift decisions, so the orders never
        # drift apart either.
        m_ref = self.ref.universe.manager
        wire_ref = dumps_diagram_binary(m_ref, self.ref.node)
        for label, rel in (("arena", self.arena), ("ooc", self.ooc)):
            m_other = rel.universe.manager
            assert m_ref.current_order() == m_other.current_order(), (
                f"variable orders diverged between reference and {label} "
                "kernels\n"
                + _repro(f"reference-bdd vs {label}-bdd")
            )
            wire_other = dumps_diagram_binary(m_other, rel.node)
            assert wire_ref == wire_other, (
                f"BDD kernels (reference vs {label}) diverged on "
                f"canonical node table over {names} "
                f"({len(wire_ref)} vs {len(wire_other)} wire bytes)\n"
                + _repro(f"reference-bdd vs {label}-bdd")
            )


def random_base(rng, u_ref, u_arena, u_ooc, u_zdd):
    n_attrs = rng.randrange(1, 3)
    attrs = rng.sample(ATTRS, n_attrs)
    pds = rng.sample(PHYSDOMS, n_attrs)
    n_rows = rng.randrange(0, 10)
    rows = [
        tuple(rng.randrange(DOMAIN_SIZE) for _ in attrs)
        for _ in range(n_rows)
    ]
    return Quint(
        Relation.from_tuples(u_ref, attrs, rows, pds),
        Relation.from_tuples(u_arena, attrs, rows, pds),
        Relation.from_tuples(u_ooc, attrs, rows, pds),
        Relation.from_tuples(u_zdd, attrs, rows, pds),
        Oracle.from_tuples(attrs, rows),
    )


def apply_random_op(rng, pool, u_ref, u_arena, u_ooc, u_zdd):
    """Apply one random operation; returns a new Quint or None."""
    ops = ["base", "union", "intersect", "difference", "project",
           "rename", "join", "compose", "select", "replace"]
    op = rng.choice(ops)
    if op == "base" or not pool:
        return random_base(rng, u_ref, u_arena, u_ooc, u_zdd)
    t1 = rng.choice(pool)
    if op in ("union", "intersect", "difference"):
        same = [t for t in pool if t.oracle.attrs == t1.oracle.attrs]
        t2 = rng.choice(same)
        return Quint(
            getattr(t1.ref, op)(t2.ref),
            getattr(t1.arena, op)(t2.arena),
            getattr(t1.ooc, op)(t2.ooc),
            getattr(t1.zdd, op)(t2.zdd),
            getattr(t1.oracle, op)(t2.oracle),
        )
    if op == "project":
        if len(t1.oracle.attrs) < 2:
            return None
        name = rng.choice(sorted(t1.oracle.attrs))
        return Quint(
            t1.ref.project_away(name),
            t1.arena.project_away(name),
            t1.ooc.project_away(name),
            t1.zdd.project_away(name),
            t1.oracle.project_away(name),
        )
    if op == "rename":
        unused = sorted(set(ATTRS) - t1.oracle.attrs)
        if not unused:
            return None
        old = rng.choice(sorted(t1.oracle.attrs))
        new = rng.choice(unused)
        return Quint(
            t1.ref.rename({old: new}),
            t1.arena.rename({old: new}),
            t1.ooc.rename({old: new}),
            t1.zdd.rename({old: new}),
            t1.oracle.rename({old: new}),
        )
    if op in ("join", "compose"):
        t2 = rng.choice(pool)
        a1, a2 = t1.oracle.attrs, t2.oracle.attrs
        if op == "compose" and (len(a1) < 2 or len(a2) < 2):
            return None
        x = rng.choice(sorted(a1))
        y = rng.choice(sorted(a2))
        if op == "join":
            if a1 & (a2 - {y}):
                return None
        else:
            if (a1 - {x}) & (a2 - {y}):
                return None
        result_size = (
            len(a1 | (a2 - {y}))
            if op == "join"
            else len((a1 - {x}) | (a2 - {y}))
        )
        if result_size > 3 or result_size == 0:
            return None
        if op == "join":
            return Quint(
                t1.ref.join(t2.ref, [x], [y]),
                t1.arena.join(t2.arena, [x], [y]),
                t1.ooc.join(t2.ooc, [x], [y]),
                t1.zdd.join(t2.zdd, [x], [y]),
                t1.oracle.join(t2.oracle, x, y),
            )
        return Quint(
            t1.ref.compose(t2.ref, [x], [y]),
            t1.arena.compose(t2.arena, [x], [y]),
            t1.ooc.compose(t2.ooc, [x], [y]),
            t1.zdd.compose(t2.zdd, [x], [y]),
            t1.oracle.compose(t2.oracle, x, y),
        )
    if op == "select":
        name = rng.choice(sorted(t1.oracle.attrs))
        values = {name: rng.randrange(DOMAIN_SIZE)}
        return Quint(
            t1.ref.select(values),
            t1.arena.select(values),
            t1.ooc.select(values),
            t1.zdd.select(values),
            t1.oracle.select(values),
        )
    if op == "replace":
        # Semantically the identity: move one attribute to a free pd.
        name = rng.choice(sorted(t1.oracle.attrs))
        used = {pd.name for _, pd in t1.ref.schema.pairs}
        free = sorted(set(PHYSDOMS) - used)
        if not free:
            return None
        target = rng.choice(free)
        return Quint(
            t1.ref.replace({name: target}),
            t1.arena.replace({name: target}),
            t1.ooc.replace({name: target}),
            t1.zdd.replace({name: target}),
            t1.oracle,
        )
    raise AssertionError(op)


def run_chain(seed, reorder, n_ops, chain_index=0):
    _CTX.update(seed=seed, chain_index=chain_index, reorder=reorder)
    rng = random.Random(seed)
    u_ref = build_universe("bdd", kernel="reference")
    u_arena = build_universe("bdd", kernel="arena")
    u_ooc = build_universe("bdd", kernel="ooc")
    u_zdd = build_universe("zdd")
    if reorder:
        # Tiny threshold so sifting actually fires mid-chain, with both
        # grouping policies exercised across seeds.  Every BDD kernel
        # gets identical settings: their tables are identical, so their
        # sift decisions must coincide (check() asserts it).
        threshold = rng.choice([20, 60])
        group = bool(seed % 2)
        u_ref.enable_reorder(threshold=threshold, group_by_physdom=group)
        u_arena.enable_reorder(threshold=threshold, group_by_physdom=group)
        u_ooc.enable_reorder(threshold=threshold, group_by_physdom=group)
    pool = [random_base(rng, u_ref, u_arena, u_ooc, u_zdd)]
    pool[0].check()
    for _ in range(n_ops):
        result = apply_random_op(rng, pool, u_ref, u_arena, u_ooc, u_zdd)
        if result is None:
            continue
        result.check()
        pool.append(result)
        if len(pool) > 6:
            pool.pop(0)
        if reorder and rng.random() < 0.1:
            # Manual pass at an operation boundary, then re-check every
            # live relation's tuples survived it.
            u_ref.reorder()
            u_arena.reorder()
            u_ooc.reorder()
            for t in pool:
                t.check()
    if reorder:
        u_ref.manager.check_integrity()
        u_arena.manager.check_integrity()
        u_ooc.manager.check_integrity()


# Ten batches per mode keep single-test runtimes small while totalling
# N_CHAINS chains per mode (the acceptance floor is 1000 overall).
BATCHES = 10


@pytest.mark.parametrize("reorder", [False, True], ids=["plain", "reorder"])
@pytest.mark.parametrize("batch", range(BATCHES))
def test_differential_chains(reorder, batch):
    per_batch = N_CHAINS // BATCHES
    base = batch * per_batch
    for i in range(per_batch):
        seed = 90_000 + base + i if reorder else base + i
        run_chain(seed, reorder, OPS_PER_CHAIN, chain_index=base + i)


@pytest.mark.reorder_stress
@pytest.mark.parametrize("reorder", [False, True], ids=["plain", "reorder"])
def test_differential_chains_stress(reorder):
    for i in range(N_CHAINS_STRESS):
        seed = 500_000 + i if reorder else 400_000 + i
        run_chain(seed, reorder, OPS_PER_CHAIN_STRESS, chain_index=i)


@pytest.mark.kernel_stress
@pytest.mark.parametrize("reorder", [False, True], ids=["plain", "reorder"])
def test_kernel_stress_chains(reorder):
    """Longer chains aimed at the arena and ooc kernels' machinery.

    Same five-way harness, but with enough operations per chain that
    frontiers widen past ``_VECTOR_THRESHOLD`` (so the arena's vector
    paths, not just the narrow scalar fallbacks, carry real traffic)
    and the ooc kernel's streaming sweeps process deep request queues.
    """
    for i in range(N_CHAINS_STRESS):
        seed = 700_000 + i if reorder else 600_000 + i
        run_chain(seed, reorder, OPS_PER_CHAIN_STRESS, chain_index=i)


def test_replay_chain():
    """Replay hook for the repro lines printed on divergence.

    ``JEDD_DIFF_SEED=<seed> pytest tests/bdd/test_differential.py -k
    replay`` reruns exactly the chain that failed (both reorder modes,
    long enough to cover stress-length chains).
    """
    seed = os.environ.get(REPLAY_ENV)
    if seed is None:
        pytest.skip(f"set {REPLAY_ENV}=<seed> to replay a chain")
    for reorder in (False, True):
        run_chain(int(seed), reorder, OPS_PER_CHAIN_STRESS)
