"""Vectorized "arena" BDD kernel: struct-of-arrays node store with
level-synchronized operations.

The reference kernel (:mod:`repro.bdd.manager`) resolves every
``apply``/``exist``/``and_exist`` request with one recursive Python call
per node pair.  That is the hot path under every analysis in this
reproduction -- the paper's whole pitch (PLDI 2004, sections 3.2 and 4)
is that relational operations lower to a handful of BDD kernel calls, so
kernel time dominates.  This module reorganises those kernels the way
external-memory and vectorized BDD packages do (see PAPERS.md: Sølvsten
& van de Pol, "Symbolic Model Checking in External Memory"): requests
are bucketed by the *level* of their topmost variable and whole
frontiers of requests are processed per level -- cofactor extraction,
terminal short-cuts, duplicate collapsing, operation-cache probes and
unique-table insertion become batch primitives over numpy arrays.

Layout
------

- Node store: parallel ``numpy`` int64 arrays (``_level``, ``_low``,
  ``_high``, ``_refs``, ``_parents``) with amortised-doubling growth; a
  node id indexes all five.  Terminals stay at ids 0/1.  The unique
  table and the operation caches are plain dicts (at realistic frontier
  widths a batch of dict probes beats open-addressed numpy probing):
  one unique dict per level and one cache dict per op on the wide
  path, keyed by the packed pair ``x << 32 | y`` computed in numpy.
- Sweeps: ``apply``, ``ite_var``, ``exist``, ``and_exist`` and
  ``replace`` run on the driver shared with the out-of-core kernel
  (:mod:`repro.bdd.sweep`), with in-memory level queues.  This module
  adds only the numpy bucket expander: a level with at least
  ``_VECTOR_THRESHOLD`` requests is expanded and reduced as arrays
  (batched ``mk_many``), a narrower one takes the driver's row path.
- Managers with at most ``_RECURSION_SAFE_VARS`` variables run narrow
  ``apply``/``exist``/``ite_var`` requests depth first.  All paths
  produce identical nodes -- hash-consing makes results canonical
  regardless of evaluation strategy, which is what the cross-kernel
  differential suite (``tests/bdd/test_differential.py``) asserts.

Everything else -- reference counting, mark-and-sweep GC, Rudell
sifting/reordering, serialization (:mod:`repro.bdd.io`), telemetry
(:class:`repro.bdd.stats.KernelStats`) -- is inherited from
:class:`~repro.bdd.manager.BDDManager` or reimplemented with identical
observable behaviour, so the arena drops in behind the
``DiagramBackend`` seam: select it with ``open_universe(kernel="arena")``
or ``JEDD_KERNEL=arena``.  See ``docs/KERNEL.md``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import repeat
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bdd.manager import (
    FALSE,
    TRUE,
    BDDError,
    BDDManager,
    _OP_AND,
    _OP_DIFF,
    _OP_OR,
)
from repro.bdd.sweep import (
    AndExistSpec,
    ApplySpec,
    ExistSpec,
    IteVarSpec,
    ReplaceSpec,
    SweepKernel,
)

__all__ = ["ArenaBDDManager"]

_I64 = np.int64

#: Managers with at most this many variables run narrow (single-request)
#: apply/exist/ite_var requests depth first: diagram depth is
#: bounded by the variable count, so the interpreter stack is safe, and
#: the recursive path has far less per-call overhead than a sweep.
#: Deeper managers always sweep, which never recurses.  Wide batches
#: sweep regardless.
_RECURSION_SAFE_VARS = 400

#: Levels (and batches) with at least this many requests take the numpy
#: path; per-element numpy overhead dominates narrower ones.
_VECTOR_THRESHOLD = 32


#: Plan record of a level expanded as arrays: the distinct requests
#: ``(x, y)`` in the order of their sorted keys ``x << 32 | y``, and per
#: branch the children (see :meth:`ArenaBDDManager._children`).
_Wide = namedtuple("_Wide", "keys x y lo hi")


class _Resolved(dict):
    """An arena sweep's published results.  Row levels publish entries;
    a wide level keeps its sorted request keys and results as arrays
    (``wide``), searched when a row parent asks for one of them."""

    __slots__ = ("lv", "wide")

    def __init__(self, lv) -> None:
        super().__init__()
        self.lv = lv
        self.wide: Dict[int, tuple] = {}

    def __missing__(self, key):
        x, y = key
        lx, ly = self.lv(x), self.lv(y)
        keys, res = self.wide[lx if lx < ly else ly]
        # A count that never reaches zero: wide results are not dropped.
        entry = self[key] = [res.item(keys.searchsorted((x << 32) | y)), -1]
        return entry


class _LevelUnique:
    """The arena's unique table: one dict per level, keyed by the packed
    child pair ``low << 32 | high``.  ``mk_many`` computes the keys of a
    whole batch in numpy, and a packed int hashes much faster than a
    ``(level, low, high)`` tuple.  The tuple-keyed mapping methods serve
    the inherited reordering and integrity code."""

    __slots__ = ("tables",)

    def __init__(self, num_levels: int) -> None:
        self.tables: List[Dict[int, int]] = [{} for _ in range(num_levels)]

    def __len__(self) -> int:
        return sum(map(len, self.tables))

    def get(self, key, default=None):
        level, lo, hi = key
        return self.tables[level].get((int(lo) << 32) | int(hi), default)

    def __setitem__(self, key, node: int) -> None:
        level, lo, hi = key
        self.tables[level][(int(lo) << 32) | int(hi)] = int(node)

    def __delitem__(self, key) -> None:
        level, lo, hi = key
        del self.tables[level][(int(lo) << 32) | int(hi)]

    def rebuild(self, nodes: np.ndarray, level, low, high) -> None:
        """Hold exactly ``nodes`` (cheaper than deleting the dead keys
        when, as after most collections, most of the table is dead)."""
        tables: List[Dict[int, int]] = [{} for _ in self.tables]
        if nodes.size:
            lv = level[nodes]
            order = np.argsort(lv, kind="stable")
            nodes = nodes[order]
            keys = (low[nodes] << 32) | high[nodes]
            levels, starts = np.unique(lv[order], return_index=True)
            cuts = starts[1:]
            for lvl, k, n in zip(
                levels.tolist(), np.split(keys, cuts), np.split(nodes, cuts)
            ):
                tables[lvl] = dict(zip(k.tolist(), n.tolist()))
        self.tables = tables


class ArenaBDDManager(SweepKernel):
    """The vectorized struct-of-arrays BDD kernel.

    A drop-in subclass of :class:`~repro.bdd.manager.BDDManager`: the
    public API, reference-counting protocol, reordering machinery and
    serialization formats are unchanged, and results are bit-identical
    (equal canonical node tables under equal variable orders).  See the
    module docstring for the execution model.

    Extra parameters
    ----------------
    initial_capacity:
        Initial node-array capacity (grows by doubling).  Tests use tiny
        values to force growth on every path.
    """

    kernel_name = "arena"

    #: The per-level node index (``_at_level``) and the parent counters
    #: (``_parents``) are maintained lazily: the reorder machinery is
    #: their only consumer, so the steady-state hot path skips the
    #: per-node bookkeeping entirely and both are rebuilt vectorized on
    #: entry to swap/sift/reorder (then tracked eagerly while those run,
    #: since they create and free nodes mid-flight).  Class attribute so
    #: ``super().__init__`` sees it before the instance flag exists.
    _track_levels = False

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
        initial_capacity: int = 1024,
    ) -> None:
        super().__init__(num_vars, gc_threshold, cache_limit)
        cap = 4
        while cap < initial_capacity:
            cap <<= 1
        self._capacity = cap
        self._size = 2
        # Replace the list-based node store with numpy columns.
        self._level = np.full(cap, num_vars, _I64)
        self._low = np.full(cap, -1, _I64)
        self._high = np.full(cap, -1, _I64)
        self._refs = np.zeros(cap, _I64)
        self._refs[FALSE] = self._refs[TRUE] = 1
        self._parents = np.zeros(cap, _I64)
        # The unique table stays Python dicts: profiling shows dict probes
        # (~0.15us) beat open-addressed numpy probing both for the scalar
        # mk() path and for batch lookups at realistic frontier widths
        # (tens to a few thousand); mk_many still batches the key packing,
        # reduce, duplicate-collapse, and store-column writes as vector ops.
        self._unique = _LevelUnique(num_vars)
        # The wide path's operation caches (see _wide_cache).
        self._wide_caches: Dict[tuple, Dict[int, int]] = {}
        # Frontier telemetry (satellite for the benchmark spans).
        self.frontier_levels = np.zeros(max(num_vars, 1), _I64)
        self.frontier_batches_vector = 0
        self.frontier_batches_scalar = 0
        self.max_frontier = 0

    # ------------------------------------------------------------------
    # Store management
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._size - len(self._free)

    def table_stats(self) -> Dict[str, float]:
        live = self.num_nodes
        self.stats.note_live(live)
        capacity = self._capacity
        return {
            "live_nodes": live,
            "capacity": capacity,
            "free_slots": len(self._free),
            "unique_entries": len(self._unique),
            "load": live / capacity if capacity else 0.0,
            "num_vars": self._num_vars,
            "peak_live_nodes": self.stats.peak_live_nodes,
        }

    def cache_stats(self) -> Dict[str, int]:
        out = super().cache_stats()
        for (name, _), cache in self._wide_caches.items():
            out[name] += len(cache)
        return out

    def _clear_caches(self) -> None:
        super()._clear_caches()
        self._wide_caches.clear()

    def _reserve(self, need: int) -> None:
        if need <= self._capacity:
            return
        cap = self._capacity
        while cap < need:
            cap *= 2
        size = self._size
        for name, fill in (
            ("_level", 0),
            ("_low", -1),
            ("_high", -1),
            ("_refs", 0),
            ("_parents", 0),
        ):
            old = getattr(self, name)
            new = np.full(cap, fill, _I64)
            new[:size] = old[:size]
            setattr(self, name, new)
        self._capacity = cap

    def mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return int(low)
        level = int(level)
        low = int(low)
        high = int(high)
        table = self._unique.tables[level]
        key = (low << 32) | high
        node = table.get(key)
        if node is not None:
            return node
        if self._free:
            node = int(self._free.pop())
        else:
            if self._size == self._capacity:
                self._reserve(self._size + 1)
            node = self._size
            self._size += 1
        self._level[node] = level
        self._low[node] = low
        self._high[node] = high
        self._refs[node] = 0
        if self._track_levels:
            self._parents[node] = 0
            self._parents[low] += 1
            self._parents[high] += 1
            self._at_level[level].add(node)
        table[key] = node
        self.stats.nodes_created += 1
        return node

    def mk_many(self, level: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vector ``mk``: reduce, batch unique lookup, batch insert."""
        n = len(lo)
        out = np.empty(n, _I64)
        red = lo == hi
        out[red] = lo[red]
        ni = ~red
        cnt = int(np.count_nonzero(ni))
        if cnt == 0:
            return out
        level = int(level)
        table = self._unique.tables[level]
        keys = (lo[ni] << 32) | hi[ni]
        found = np.fromiter(map(table.get, keys.tolist(), repeat(-1)), _I64, cnt)
        miss = found < 0
        if miss.any():
            # Collapse duplicate (low, high) pairs within the batch.
            new, uinv = np.unique(keys[miss], return_inverse=True)
            ids = self._alloc_many(level, new >> 32, new & 0xFFFFFFFF)
            table.update(zip(new.tolist(), ids.tolist()))
            found[miss] = ids[uinv]
        out[ni] = found
        return out

    def _alloc_many(self, level: int, nl: np.ndarray, nh: np.ndarray) -> np.ndarray:
        n = len(nl)
        ids = np.empty(n, _I64)
        k = 0
        free = self._free
        if free:
            k = min(len(free), n)
            ids[:k] = free[-k:]
            del free[-k:]
        m = n - k
        if m:
            self._reserve(self._size + m)
            ids[k:] = np.arange(self._size, self._size + m)
            self._size += m
        self._level[ids] = level
        self._low[ids] = nl
        self._high[ids] = nh
        self._refs[ids] = 0
        if self._track_levels:
            self._parents[ids] = 0
            np.add.at(self._parents, nl, 1)
            np.add.at(self._parents, nh, 1)
            self._at_level[level].update(ids.tolist())
        self.stats.nodes_created += n
        return ids

    def add_vars(self, count: int) -> None:
        if count < 0:
            raise BDDError("count must be non-negative")
        old_sentinel = self._num_vars
        self._num_vars += count
        size = self._size
        lv = self._level[:size]
        terminal = (lv == old_sentinel) & (self._low[:size] == -1)
        lv[terminal] = self._num_vars
        self._at_level.extend(set() for _ in range(count))
        self._unique.tables.extend({} for _ in range(count))
        self._var_at_level.extend(range(old_sentinel, self._num_vars))
        self._level_at_var.extend(range(old_sentinel, self._num_vars))
        self._count_cache.clear()
        self.frontier_levels = np.concatenate(
            (self.frontier_levels, np.zeros(count, _I64))
        )

    # ------------------------------------------------------------------
    # Breadth-first frontier machinery
    # ------------------------------------------------------------------

    def frontier_profile(self) -> Dict[str, object]:
        """Telemetry snapshot of frontier activity since construction
        (or the last :meth:`reset_frontier_profile`)."""
        levels = self.frontier_levels
        nz = np.flatnonzero(levels)
        return {
            "per_level": {int(i): int(levels[i]) for i in nz},
            "total_requests": int(levels.sum()),
            "batches_vector": self.frontier_batches_vector,
            "batches_scalar": self.frontier_batches_scalar,
            "max_frontier": int(self.max_frontier),
        }

    def reset_frontier_profile(self) -> None:
        self.frontier_levels.fill(0)
        self.frontier_batches_vector = 0
        self.frontier_batches_scalar = 0
        self.max_frontier = 0

    def _note_bucket(self, level: int, width: int) -> bool:
        """Record telemetry; True when the bucket takes the vector path."""
        self.frontier_levels[level] += width
        if width > self.max_frontier:
            self.max_frontier = width
        if width < _VECTOR_THRESHOLD:
            self.frontier_batches_scalar += 1
            return False
        self.frontier_batches_vector += 1
        return True

    # ------------------------------------------------------------------
    # Sweeps: routing and the numpy bucket expander
    # ------------------------------------------------------------------

    # Shared sweep operations, bound on this class as well so that
    # instrumentation patching methods per class (it walks
    # ``cls.__dict__``) sees them.
    replace = SweepKernel.replace
    apply_not = SweepKernel.apply_not

    def _apply(self, op: int, a: int, b: int) -> int:
        a = int(a)
        b = int(b)
        if self._num_vars <= _RECURSION_SAFE_VARS:
            return BDDManager._apply(self, op, a, b)
        return super()._apply(op, a, b)

    def _exist(self, a: int, levels: Tuple[int, ...]) -> int:
        if self._num_vars <= _RECURSION_SAFE_VARS:
            return BDDManager._exist(self, int(a), levels)
        return super()._exist(int(a), levels)

    def _ite_vars(self, L: int, pairs: list) -> list:
        # Like _apply: a shallow manager's narrow requests recurse.
        if self._num_vars > _RECURSION_SAFE_VARS:
            return super()._ite_vars(L, pairs)
        return [self._ite_var(L, f, g) for f, g in pairs]

    def _apply_many(self, op: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Batch ``_apply`` over request pairs: one sweep for all (one
        call each below ``_VECTOR_THRESHOLD`` pairs)."""
        n = len(A)
        if n < _VECTOR_THRESHOLD:
            one = partial(self._apply, op)
            return np.fromiter(map(one, A.tolist(), B.tolist()), _I64, n)
        return self._many(ApplySpec(self, op), A, B)

    def _many(self, spec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """``_sweep`` over array roots, filed and read back as arrays."""
        pending = self._level_queue()
        branch = self._children(spec, A, B, pending)
        if branch[1]:
            return self._gather(branch, self._passes(spec, pending))
        return branch[0]

    def _sweep_open(self) -> "_Resolved":
        return _Resolved(self._level.item)

    def _expand(self, spec, level: int, rows: list, pending) -> list:
        # Rows are request pairs filed by the row path, or (n, 2) arrays
        # of them filed by wide levels.
        chunks = [r for r in rows if type(r) is np.ndarray]
        if chunks:
            rows = [r for r in rows if type(r) is tuple]
        width = len(rows) + sum(map(len, chunks))
        if not self._note_bucket(level, width):
            for chunk in chunks:
                rows.extend(map(tuple, chunk.tolist()))
            return super()._expand(spec, level, rows, pending)
        if rows:
            chunks.append(np.array(rows, _I64))
        xy = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        keys, first = np.unique((xy[:, 0] << 32) | xy[:, 1], return_index=True)
        X = xy[first, 0]
        Y = xy[first, 1]
        spec.miss(len(X))
        lv, lo, hi = self._level, self._low, self._high
        on = lv[X] == level
        x0 = np.where(on, lo[X], X)
        x1 = np.where(on, hi[X], X)
        on = lv[Y] == level
        y0 = np.where(on, lo[Y], Y)
        y1 = np.where(on, hi[Y], Y)
        return [
            _Wide(
                keys,
                X,
                Y,
                self._children(spec, x0, y0, pending),
                self._children(spec, x1, y1, pending),
            )
        ]

    def _classify(self, spec, cx: np.ndarray, cy: np.ndarray):
        """Vector form of ``spec.child``'s terminal cases: the values
        (``-1`` where a request remains), the normalized operand pairs
        and their top levels."""
        lv = self._level
        kind = type(spec)
        if kind is ApplySpec or kind is AndExistSpec:
            if kind is ApplySpec:
                val = self._shortcut_vector(spec.op, cx, cy)
            else:
                val = np.full(len(cx), -1, _I64)
                val[(cx == FALSE) | (cy == FALSE)] = FALSE
                val[(cx == TRUE) & (cy == TRUE)] = TRUE
            top = np.minimum(lv[cx], lv[cy])
            if kind is AndExistSpec:
                # No quantified level left below: plain conjunction.
                anded = (val < 0) & (top > spec.last)
                if anded.any():
                    val[anded] = self._apply_many(_OP_AND, cx[anded], cy[anded])
            if kind is AndExistSpec or spec.op != _OP_DIFF:
                sw = cx > cy
                cx, cy = np.where(sw, cy, cx), np.where(sw, cx, cy)
            return val, cx, cy, top
        if kind is IteVarSpec:
            L = spec.L
            val = np.where(cx == cy, cx, -1)
            top = np.minimum(lv[cx], lv[cy])
            above = (val < 0) & (top > L)
            if above.any():
                val[above] = self.mk_many(L, cx[above], cy[above])
            at = (val < 0) & (top == L)
            if at.any():
                # cx/cy are pre-existing nodes: reads through the old
                # ``lv`` stay valid after mk_many grows the store.
                f = cx[at]
                g = cy[at]
                val[at] = self.mk_many(
                    L,
                    np.where(lv[f] == L, self._low[f], f),
                    np.where(lv[g] == L, self._high[g], g),
                )
            return val, cx, cy, top
        top = lv[cx]  # unary: exist, replace
        return np.where(top > spec.last, cx, -1), cx, cy, top

    def _wide_cache(self, spec, level: int) -> Dict[int, int]:
        """The operation cache of ``spec``'s requests at ``level`` on the
        wide path, keyed by the packed pair ``x << 32 | y``: one dict per
        op (per quantified suffix for exist / and_exist), so a whole
        level's keys are computed in numpy and hash as plain ints.  The
        row path and the recursion keep the tuple-keyed caches; a request
        computed on one side and asked on the other is recomputed, to the
        same canonical node."""
        kind = type(spec)
        if kind is ApplySpec:
            name = ("apply", spec.op)
        elif kind is IteVarSpec:
            name = ("apply", spec.opk)
        elif kind is ExistSpec:
            name = ("exist", spec.suffix[level])
        else:
            name = ("and_exist", spec.suffix[level])
        cache = self._wide_caches.get(name)
        if cache is None:
            cache = self._wide_caches[name] = {}
        return cache

    def _children(self, spec, cx: np.ndarray, cy: np.ndarray, pending):
        """One branch of a wide level (vector ``spec.child``): the child
        values, and the requests filed for the rest (terminal cases and
        cache hits aside) as ``(level, positions, xs, ys)`` groups."""
        val, cx, cy, top = self._classify(spec, cx, cy)
        idx = np.flatnonzero(val < 0)
        groups = []
        if idx.size:
            levels = top[idx]
            order = np.argsort(levels, kind="stable")
            cuts = np.flatnonzero(np.diff(levels[order])) + 1
            cached = spec.cache is not None
            for pos in np.split(idx[order], cuts):
                t = int(top[pos[0]])
                px, py = cx[pos], cy[pos]
                if cached:
                    get = self._wide_cache(spec, t).get
                    got = np.fromiter(
                        map(get, ((px << 32) | py).tolist(), repeat(-1)),
                        _I64,
                        pos.size,
                    )
                    hit = got >= 0
                    nhit = int(np.count_nonzero(hit))
                    if nhit:
                        spec.hit(nhit)
                        val[pos[hit]] = got[hit]
                        if nhit == pos.size:
                            continue
                        miss = ~hit
                        pos, px, py = pos[miss], px[miss], py[miss]
                pending.push(t, np.stack((px, py), axis=1))
                groups.append((t, pos, px, py))
        return val, groups

    def _reduce(self, spec, level: int, rows: list, resolved: "_Resolved") -> None:
        rec = rows[0]
        if type(rec) is not _Wide:
            return super()._reduce(spec, level, rows, resolved)
        lo = self._gather(rec.lo, resolved)
        hi = self._gather(rec.hi, resolved)
        if type(spec) is ReplaceSpec:
            r = self._relabel_many(spec.perm.get(level, level), lo, hi)
        elif level in spec.quantified:
            r = self._apply_many(_OP_OR, lo, hi)
        else:
            r = self.mk_many(level, lo, hi)
        if spec.cache is not None:
            cache = self._wide_cache(spec, level)
            if self.cache_limit is not None and len(cache) + len(r) > self.cache_limit:
                cache.clear()
            cache.update(zip(rec.keys.tolist(), r.tolist()))
        resolved.wide[level] = (rec.keys, r)

    @staticmethod
    def _gather(branch, resolved: "_Resolved") -> np.ndarray:
        """A wide branch's child values.  Wide parents read results
        without taking them: their share of each count keeps a row
        level's result published."""
        val, groups = branch
        for t, pos, px, py in groups:
            wide = resolved.wide.get(t)
            if wide is None:
                val[pos] = [resolved[k][0] for k in zip(px.tolist(), py.tolist())]
            else:
                keys, res = wide
                val[pos] = res[np.searchsorted(keys, (px << 32) | py)]
        return val

    def _relabel_many(self, new: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``ReplaceSpec.combine`` over arrays."""
        lv = self._level
        ok = (lv[lo] > new) & (lv[hi] > new)
        if ok.all():
            return self.mk_many(new, lo, hi)
        r = np.empty(len(lo), _I64)
        if ok.any():
            r[ok] = self.mk_many(new, lo[ok], hi[ok])
        bad = ~ok
        r[bad] = self._many(IteVarSpec(self, new), lo[bad], hi[bad])
        return r

    @staticmethod
    def _shortcut_vector(op: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.full(len(a), -1, _I64)
        if op == _OP_AND:
            out[(a == FALSE) | (b == FALSE)] = FALSE
            eq = (a == b) & (out < 0)
            out[eq] = a[eq]
            m = (a == TRUE) & (out < 0)
            out[m] = b[m]
            m = (b == TRUE) & (out < 0)
            out[m] = a[m]
        elif op == _OP_OR:
            out[(a == TRUE) | (b == TRUE)] = TRUE
            eq = (a == b) & (out < 0)
            out[eq] = a[eq]
            m = (a == FALSE) & (out < 0)
            out[m] = b[m]
            m = (b == FALSE) & (out < 0)
            out[m] = a[m]
        elif op == _OP_DIFF:
            out[(a == FALSE) | (b == TRUE) | (a == b)] = FALSE
            m = (b == FALSE) & (out < 0)
            out[m] = a[m]
        else:  # _OP_XOR
            eq = a == b
            out[eq] = FALSE
            m = (a == FALSE) & (out < 0)
            out[m] = b[m]
            m = (b == FALSE) & (out < 0)
            out[m] = a[m]
        return out

    # ------------------------------------------------------------------
    # Iterative reimplementations of recursive base-class operations
    # ------------------------------------------------------------------

    def _levelize(self, a: int) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
        """Vectorized level-ordered reachability from ``a``.

        Children are always deeper than their parents, so an ascending
        sweep visits every node exactly once and buckets it by level.
        Buckets hold possibly-duplicated candidate arrays; dedup happens
        per level.  Returns ``{level: unique node array}`` (internal
        nodes only) and the visited mask (terminals pre-marked).
        """
        lvl_arr, low_arr, high_arr = self._level, self._low, self._high
        visited = np.zeros(lvl_arr.shape[0], dtype=np.bool_)
        visited[FALSE] = visited[TRUE] = True
        level_nodes: Dict[int, np.ndarray] = {}
        if a <= TRUE:
            return level_nodes, visited
        buckets: Dict[int, list] = {}
        root_level = int(lvl_arr[a])
        buckets[root_level] = [np.array([a], _I64)]
        for level in range(root_level, self._num_vars):
            parts = buckets.pop(level, None)
            if not parts:
                continue
            arr = np.unique(parts[0] if len(parts) == 1 else np.concatenate(parts))
            arr = arr[~visited[arr]]
            if arr.size == 0:
                continue
            visited[arr] = True
            level_nodes[level] = arr
            children = np.concatenate((low_arr[arr], high_arr[arr]))
            children = children[~visited[children]]
            if children.size:
                clv = lvl_arr[children]
                order = np.argsort(clv, kind="stable")
                children = children[order]
                uniq, starts = np.unique(clv[order], return_index=True)
                for child_level, chunk in zip(
                    uniq, np.split(children, starts[1:])
                ):
                    buckets.setdefault(int(child_level), []).append(chunk)
        return level_nodes, visited

    def node_count(self, a: int) -> int:
        level_nodes, _ = self._levelize(int(a))
        return sum(arr.size for arr in level_nodes.values())

    def support(self, a: int) -> frozenset:
        level_nodes, _ = self._levelize(int(a))
        return frozenset(self._var_at_level[lv] for lv in level_nodes)

    def shape(self, a: int) -> List[int]:
        counts = [0] * self._num_vars
        level_nodes, _ = self._levelize(int(a))
        for lv, arr in level_nodes.items():
            counts[lv] = arr.size
        return counts

    def sat_count(self, a: int, variables: Sequence[int] | None = None) -> int:
        a = int(a)
        if variables is None:
            level_set = None
            width = self._num_vars
        else:
            level_set = frozenset(self._to_levels(variables))
            width = len(level_set)
            bad = {
                self._level_at_var[v] for v in self.support(a)
            } - level_set
            if bad:
                raise BDDError(
                    f"sat_count variables {sorted(variables)} do not cover "
                    f"support variables "
                    f"{sorted(self._var_at_level[lv] for lv in bad)}"
                )
        sorted_levels = (
            sorted(level_set) if level_set is not None else list(range(width))
        )
        rank_below: Dict[int, int] = {}
        for i, lvl in enumerate(sorted_levels):
            rank_below[lvl] = len(sorted_levels) - i - 1

        def relevant_below(level: int) -> int:
            if level >= self._num_vars:
                return -1
            if level_set is None:
                return self._num_vars - level - 1
            return rank_below[level]

        if a == FALSE:
            return 0
        if a == TRUE:
            return 1 << width
        # Counts are arbitrary-precision integers, so the arithmetic stays
        # in Python; the traversal and child/level gathers are batched per
        # level and iterated via tolist (C-speed), replacing the per-node
        # postorder walk of the reference.
        rb: List[int] = [0] * (self._num_vars + 1)
        for lvl in range(self._num_vars):
            if level_set is None or lvl in rank_below:
                rb[lvl] = relevant_below(lvl)
        rb[self._num_vars] = -1
        level_nodes, _ = self._levelize(a)
        low_arr, high_arr, lvl_arr = self._low, self._high, self._level
        memo: Dict[int, int] = {FALSE: 0, TRUE: 1}
        for level in sorted(level_nodes, reverse=True):
            nodes = level_nodes[level]
            here = rb[level]
            los = low_arr[nodes]
            his = high_arr[nodes]
            llv = lvl_arr[los]
            hlv = lvl_arr[his]
            for node, lo, hi, ll, hl in zip(
                nodes.tolist(), los.tolist(), his.tolist(),
                llv.tolist(), hlv.tolist(),
            ):
                total = 0
                c = memo[lo]
                if c:
                    total += c << (here - rb[ll] - 1)
                c = memo[hi]
                if c:
                    total += c << (here - rb[hl] - 1)
                memo[node] = total
        top_skipped = width - rb[int(self._level[a])] - 1
        return memo[a] << top_skipped

    def postorder(self, root: int) -> List[int]:
        # Plain-int node ids (callers build dict tables and wire bytes
        # from these; keep numpy scalars out of the public surface).
        return [int(n) for n in super().postorder(int(root))]

    # ------------------------------------------------------------------
    # Reordering support
    # ------------------------------------------------------------------

    def _rebuild_at_level(self) -> None:
        """Vectorized reconstruction of the per-level node index and the
        parent counters.

        Live internal nodes are exactly the allocated slots with a valid
        low edge (terminals and freed slots carry ``-1``).
        """
        ats: List[set] = [set() for _ in range(self._num_vars)]
        live = np.flatnonzero(self._low[: self._size] >= 0)
        parents = np.zeros(self._capacity, _I64)
        if live.size:
            np.add.at(parents, self._low[live], 1)
            np.add.at(parents, self._high[live], 1)
            lv = self._level[live]
            order = np.argsort(lv, kind="stable")
            live = live[order]
            ul, starts = np.unique(lv[order], return_index=True)
            for lvl, chunk in zip(ul.tolist(), np.split(live, starts[1:])):
                ats[lvl] = set(chunk.tolist())
        self._at_level = ats
        self._parents = parents

    def _enter_level_index(self) -> bool:
        """Make ``_at_level`` valid and eagerly tracked; returns the
        previous tracking flag for the paired restore."""
        prev = self._track_levels
        if not prev:
            self._rebuild_at_level()
            self._track_levels = True
        return prev

    def swap_levels(self, level: int) -> int:
        prev = self._enter_level_index()
        try:
            return super().swap_levels(level)
        finally:
            self._track_levels = prev

    def sift(self, *args, **kwargs):
        prev = self._enter_level_index()
        try:
            return super().sift(*args, **kwargs)
        finally:
            self._track_levels = prev

    def sift_groups(self, *args, **kwargs):
        prev = self._enter_level_index()
        try:
            return super().sift_groups(*args, **kwargs)
        finally:
            self._track_levels = prev

    def reorder(self, *args, **kwargs):
        prev = self._enter_level_index()
        try:
            return super().reorder(*args, **kwargs)
        finally:
            self._track_levels = prev

    def set_order(self, order: Sequence[int]) -> None:
        prev = self._enter_level_index()
        try:
            super().set_order(order)
        finally:
            self._track_levels = prev

    def _swap_adjacent(self, i: int) -> None:
        # The inherited swap binds the node arrays to locals and then
        # calls mk(); pre-reserving the worst case (two fresh nodes per
        # rewritten upper node) guarantees mk() never reallocates the
        # arrays out from under those bindings.
        self._reserve(self._size + 2 * len(self._at_level[i]) + 2)
        super()._swap_adjacent(i)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(self) -> int:
        start = perf_counter()
        self.stats.note_live(self.num_nodes)
        size = self._size
        level, low, high = self._level, self._low, self._high
        marked = np.zeros(size, dtype=bool)
        roots = np.flatnonzero(self._refs[:size] > 0)
        wave = roots[roots > TRUE]
        marked[wave] = True
        while wave.size:
            kids = np.concatenate((low[wave], high[wave]))
            kids = kids[kids > TRUE]
            kids = np.unique(kids)
            kids = kids[~marked[kids]]
            marked[kids] = True
            wave = kids
        free_mask = np.zeros(size, dtype=bool)
        if self._free:
            free_mask[np.asarray(self._free, _I64)] = True
        dead = np.flatnonzero(~marked & ~free_mask)
        dead = dead[dead > TRUE]
        freed = len(dead)
        if freed:
            self._unique.rebuild(np.flatnonzero(marked), level, low, high)
            if self._track_levels:
                dlv = level[dead]
                dlo = low[dead]
                dhi = high[dead]
                for lv in np.unique(dlv):
                    self._at_level[int(lv)].difference_update(
                        dead[dlv == lv].tolist()
                    )
                kids = np.concatenate((dlo, dhi))
                kids = kids[kids > TRUE]
                np.subtract.at(self._parents, kids, 1)
                self._parents[dead] = 0
            low[dead] = -1
            high[dead] = -1
            self._free.extend(dead.tolist())
        self._clear_caches()
        self.gc_count += 1
        seconds = perf_counter() - start
        stats = self.stats
        stats.gc_runs += 1
        stats.gc_seconds += seconds
        stats.last_gc_seconds = seconds
        stats.gc_reclaimed += freed
        for listener in self.gc_listeners:
            listener(seconds, freed)
        return freed

    # ------------------------------------------------------------------
    # Debugging
    # ------------------------------------------------------------------

    def check_integrity(self) -> None:
        # Same invariants as the base class, scanned over the allocated
        # prefix of the arrays (capacity beyond _size is uninitialised).
        # The level index and parent counters are lazily maintained (see
        # _track_levels): while reordering is not in flight they may be
        # arbitrarily stale, so their invariants below only bite when
        # tracking is on; rebuild first otherwise.
        if not self._track_levels:
            self._rebuild_at_level()
        free_set = set(int(n) for n in self._free)
        live = [n for n in range(2, self._size) if n not in free_set]
        parents = {n: 0 for n in range(self._size)}
        for n in live:
            lo, hi = int(self._low[n]), int(self._high[n])
            if lo == -1 or hi == -1:
                raise BDDError(f"live node {n} has freed children")
            if lo == hi:
                raise BDDError(f"node {n} is a redundant test")
            lvl = int(self._level[n])
            if not 0 <= lvl < self._num_vars:
                raise BDDError(f"node {n} has bad level {lvl}")
            for child in (lo, hi):
                parents[child] += 1
                if self._level[child] <= lvl:
                    raise BDDError(
                        f"ordering violated: node {n} (level {lvl}) -> "
                        f"{child} (level {int(self._level[child])})"
                    )
            if self._unique.get((lvl, lo, hi)) != n:
                raise BDDError(f"node {n} missing from unique table")
            if n not in self._at_level[lvl]:
                raise BDDError(f"node {n} missing from level index {lvl}")
        if len(self._unique) != len(live):
            raise BDDError(
                f"unique table has {len(self._unique)} entries for "
                f"{len(live)} live nodes"
            )
        total_indexed = sum(len(s) for s in self._at_level)
        if total_indexed != len(live):
            raise BDDError(
                f"level index holds {total_indexed} nodes, expected "
                f"{len(live)}"
            )
        for n in live:
            if self._parents[n] != parents[n]:
                raise BDDError(
                    f"node {n}: parent count {int(self._parents[n])} != "
                    f"recomputed {parents[n]}"
                )
        if sorted(self._var_at_level) != list(range(self._num_vars)):
            raise BDDError("variable order is not a permutation")
        for lvl, var in enumerate(self._var_at_level):
            if self._level_at_var[var] != lvl:
                raise BDDError("var<->level tables are not inverses")
