"""The level-synchronous sweep shared by the arena and out-of-core kernels.

Both kernels evaluate ``apply``, the fused ``ite_var``, ``exist``,
``and_exist`` and ``replace`` the way external-memory BDD packages do
(Sølvsten & van de Pol, PAPERS.md, arXiv 2505.11229): a request for a
node pair is filed under the level of its topmost variable, and every
operation is one **down** pass over ascending levels followed by one
**up** pass over the same levels descending.

- Down: pop all requests of the shallowest pending level, collapse
  duplicates into one row with a count, expand each row's cofactors and
  turn every cofactor pair into either a value (terminal case or
  operation-cache hit) or a child request at a strictly deeper level.
  A level is therefore complete by the time the pass reaches it.
- Up: replay the recorded rows deepest level first; each row takes its
  children's results, combines them (hash-consing ``mk``, or ``OR`` on
  a quantified level, or a level relabel for ``replace``), stores the
  result in the operation cache and publishes it to its parents.  A
  published result carries the number of parents still waiting for it
  and is dropped when the last one takes it, so the results held at
  any time are bounded by the widest level cut.

The driver (:meth:`SweepKernel._sweep`) is parameterised by a per-op
spec (the classes below: terminal cases, cache keys, combine) and by a
level queue (:meth:`SweepKernel._level_queue`: :class:`LevelQueue` in
memory, or the out-of-core kernel's spillable store).  Kernels may
override :meth:`SweepKernel._expand` / :meth:`SweepKernel._reduce` to
process a whole level at once; the arena kernel does so with numpy for
wide levels.  Results are canonical whatever the strategy, so every
kernel built on the driver is node-for-node identical to the reference
recursion.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.bdd.manager import (
    FALSE,
    TRUE,
    BDDError,
    BDDManager,
    _OP_AND,
    _OP_DIFF,
    _OP_OR,
    _OP_XOR,
)

__all__ = ["LevelQueue", "SweepKernel"]

#: Cache-key namespace for the fused variable-insertion op: binary ops
#: use codes 0-3, so keying ite_var entries as ``(_ITEVAR_BASE + level,
#: f, g)`` keeps them disjoint inside the shared apply cache.
_ITEVAR_BASE = 8


def _apply_shortcut(op: int, a: int, b: int) -> Optional[int]:
    """The reference ``_apply``'s terminal short-cuts; ``None`` if none."""
    if op == _OP_AND:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE or a == b:
            return b
        if b == TRUE:
            return a
    elif op == _OP_OR:
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE or a == b:
            return b
        if b == FALSE:
            return a
    elif op == _OP_DIFF:
        if a == FALSE or b == TRUE or a == b:
            return FALSE
        if b == FALSE:
            return a
    else:  # _OP_XOR
        if a == b:
            return FALSE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
    return None


class LevelQueue:
    """Rows bucketed by level, held in memory.

    The down pass pushes child requests at strictly deeper levels and
    pops the shallowest level; the up pass pops recorded rows deepest
    first.  Either way a bucket is complete before it is read.
    """

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: Dict[int, list] = {}

    def push(self, level: int, row) -> None:
        bucket = self.buckets.get(level)
        if bucket is None:
            self.buckets[level] = [row]
        else:
            bucket.append(row)

    def extend(self, level: int, rows: list) -> None:
        bucket = self.buckets.get(level)
        if bucket is None:
            self.buckets[level] = list(rows)
        else:
            bucket.extend(rows)

    def levels(self) -> List[int]:
        return sorted(lvl for lvl, rows in self.buckets.items() if rows)

    def pop_level(self, level: int) -> list:
        return self.buckets.pop(level, [])

    def close(self) -> None:
        self.buckets.clear()


def _take(resolved: dict, spec) -> int:
    """A child's result: the value itself, or the published result of
    the request ``spec`` (dropped once its last parent has taken it)."""
    if type(spec) is not tuple:
        return spec
    entry = resolved[spec]
    entry[1] -= 1
    if not entry[1]:
        del resolved[spec]
    return entry[0]


# ----------------------------------------------------------------------
# Per-op specs
# ----------------------------------------------------------------------
#
# A request is a node pair ``(f, g)``; unary ops (exist, replace) carry
# FALSE as ``g``.  ``child`` turns a cofactor pair into a value or files
# a request (returning its key), ``key`` is the operation-cache key of
# a request at a level (``keys``: the same over parallel lists, for
# kernels that process a level at once), and ``combine`` builds the
# results of a level's rows from their children's.  ``lv``/``lo``/``hi``
# read the node store; the down pass only reads nodes that existed when
# the op started, so readers bound at construction stay valid while the
# store grows.


class _Spec:
    __slots__ = ("m", "cache", "lv", "lo", "hi")

    #: Levels whose rows combine by OR instead of ``mk``.
    quantified = frozenset()
    #: The ``KernelStats`` counters of the op's cache hits and misses.
    hits = misses = ""

    def __init__(self, m: "SweepKernel", cache: Optional[dict]) -> None:
        self.m = m
        self.cache = cache
        # ``item`` returns plain ints, which hash and compare faster than
        # numpy scalars.
        self.lv, self.lo, self.hi = m._level.item, m._low.item, m._high.item

    def hit(self, n: int) -> None:
        stats = self.m.stats
        setattr(stats, self.hits, getattr(stats, self.hits) + n)

    def miss(self, n: int) -> None:
        stats = self.m.stats
        setattr(stats, self.misses, getattr(stats, self.misses) + n)

    def combine(self, level: int, los: list, his: list) -> list:
        m = self.m
        if level in self.quantified:
            return list(map(m.apply_or, los, his))
        return [m.mk(level, lo, hi) for lo, hi in zip(los, his)]


class ApplySpec(_Spec):
    __slots__ = ("op",)

    def __init__(self, m: "SweepKernel", op: int) -> None:
        super().__init__(m, m._apply_cache)
        self.op = op

    def child(self, x: int, y: int, pending):
        op = self.op
        r = _apply_shortcut(op, x, y)
        if r is not None:
            return r
        if op != _OP_DIFF and x > y:
            x, y = y, x
        r = self.cache.get((op, x, y))
        if r is not None:
            self.m.stats.op_hits[op] += 1
            return r
        lv = self.lv
        lx, ly = lv(x), lv(y)
        pending.push(lx if lx < ly else ly, (x, y))
        return (x, y)

    def key(self, x: int, y: int, level: int):
        return (self.op, x, y)

    def keys(self, xs, ys, levels):
        return zip(repeat(self.op), xs, ys)

    def hit(self, n: int) -> None:
        self.m.stats.op_hits[self.op] += n

    def miss(self, n: int) -> None:
        self.m.stats.op_misses[self.op] += n


class IteVarSpec(_Spec):
    """``ITE(variable at level L, g, f)``: insert level ``L`` above the
    cofactors ``f`` (low) and ``g`` (high) in one lockstep descent,
    instead of the three passes of ``OR(AND(v, g), DIFF(f, v))``."""

    __slots__ = ("L", "opk")
    hits, misses = "replace_hits", "replace_misses"

    def __init__(self, m: "SweepKernel", L: int) -> None:
        super().__init__(m, m._apply_cache)
        self.L = L
        self.opk = _ITEVAR_BASE + L

    def child(self, f: int, g: int, pending):
        if f == g:
            return f
        L = self.L
        lv = self.lv
        lf, lg = lv(f), lv(g)
        t = lf if lf < lg else lg
        if t > L:
            return self.m.mk(L, f, g)
        if t == L:
            return self.m.mk(
                L, self.lo(f) if lf == L else f, self.hi(g) if lg == L else g
            )
        r = self.cache.get((self.opk, f, g))
        if r is not None:
            self.m.stats.replace_hits += 1
            return r
        pending.push(t, (f, g))
        return (f, g)

    def key(self, f: int, g: int, level: int):
        return (self.opk, f, g)

    def keys(self, fs, gs, levels):
        return zip(repeat(self.opk), fs, gs)



class _Suffixes(dict):
    """Level -> interned id of the quantified levels at or below it."""

    __slots__ = ("levels", "intern")

    def __init__(self, levels: Tuple[int, ...], intern) -> None:
        super().__init__()
        self.levels = levels
        self.intern = intern

    def __missing__(self, level: int) -> int:
        levels = self.levels
        sid = self[level] = self.intern(levels[bisect_left(levels, level):])
        return sid


class _QuantSpec(_Spec):
    """Shared state of exist / and_exist: the quantified levels, and the
    suffix of them still ahead of a level (part of the cache key)."""

    __slots__ = ("last", "quantified", "suffix")

    def __init__(self, m: "SweepKernel", levels: Tuple[int, ...]) -> None:
        super().__init__(m, getattr(m, self.cache_name))
        self.last = levels[-1]
        self.quantified = frozenset(levels)
        self.suffix = _Suffixes(levels, m._intern)


class _UnarySpec(_Spec):
    """A unary op: requests below level ``last`` are identities."""

    __slots__ = ()

    def child(self, x: int, _y: int, pending):
        lx = self.lv(x)
        if lx > self.last:  # terminals sit below every level
            return x
        if self.cache is not None:
            r = self.cache.get(self.key(x, FALSE, lx))
            if r is not None:
                self.hit(1)
                return r
        pending.push(lx, (x, FALSE))
        return (x, FALSE)


class ExistSpec(_QuantSpec, _UnarySpec):
    __slots__ = ()
    cache_name, hits, misses = "_exist_cache", "exist_hits", "exist_misses"

    def key(self, x: int, _y: int, level: int):
        return (x, self.suffix[level])

    def keys(self, xs, ys, levels):
        return zip(xs, map(self.suffix.__getitem__, levels))


class AndExistSpec(_QuantSpec):
    __slots__ = ()
    cache_name = "_and_exist_cache"
    hits, misses = "and_exist_hits", "and_exist_misses"

    def child(self, a: int, b: int, pending):
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE and b == TRUE:
            return TRUE
        lv = self.lv
        la, lb = lv(a), lv(b)
        t = la if la < lb else lb
        if t > self.last:  # no quantified level left: plain conjunction
            return self.m._apply(_OP_AND, a, b)
        if a > b:
            a, b = b, a
        r = self.cache.get((a, b, self.suffix[t]))
        if r is not None:
            self.m.stats.and_exist_hits += 1
            return r
        pending.push(t, (a, b))
        return (a, b)

    def key(self, a: int, b: int, level: int):
        return (a, b, self.suffix[level])

    def keys(self, xs, ys, levels):
        return zip(xs, ys, map(self.suffix.__getitem__, levels))


class ReplaceSpec(_UnarySpec):
    """Variable substitution as a level relabel: a node whose rebuilt
    children both sit below its new level is one ``mk`` at that level;
    only the rows of a level where the new variable sinks below a child
    fall back to one :class:`IteVarSpec` sweep.  Only whole results are
    cached (by :meth:`SweepKernel.replace`): a rebuilt diagram's inner
    nodes are rarely asked for again, and caching them all costs more
    than it saves."""

    __slots__ = ("perm", "last")
    misses = "replace_misses"

    def __init__(self, m: "SweepKernel", perm: Dict[int, int]) -> None:
        super().__init__(m, None)
        self.perm = perm
        #: Below the deepest moved level a diagram is left unchanged.
        self.last = max(perm)

    def combine(self, level: int, los: list, his: list) -> list:
        m = self.m
        new = self.perm.get(level, level)
        lv = m._level
        out = [
            m.mk(new, lo, hi) if lv[lo] > new and lv[hi] > new else None
            for lo, hi in zip(los, his)
        ]
        sink = [i for i, r in enumerate(out) if r is None]
        if sink:
            pairs = [(los[i], his[i]) for i in sink]
            for i, r in zip(sink, m._ite_vars(new, pairs)):
                out[i] = r
        return out


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


class SweepKernel(BDDManager):
    """A :class:`BDDManager` whose diagram operations run as sweeps.

    Subclasses pick the level queue and may process whole levels at
    once (:meth:`_expand` / :meth:`_reduce`); everything else -- the
    public API, reference counting, GC, reordering -- is inherited.
    """

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
    ) -> None:
        super().__init__(num_vars, gc_threshold, cache_limit)
        self._sweep_trace: Optional[list] = None
        self._interned: Dict[tuple, int] = {}
        #: The published results of the sweeps in flight (nested ones
        #: included), for kernels that account their memory.
        self._active_resolved: List[dict] = []

    # -- kernel hooks ---------------------------------------------------

    def _intern(self, items: tuple) -> int:
        """A small id for a tuple of quantified levels or level moves, so
        cache keys hash a few ints instead of the tuple."""
        return self._interned.setdefault(items, len(self._interned))

    def _level_queue(self):
        return LevelQueue()

    def _sweep_open(self) -> dict:
        """Called as a sweep starts; returns the map its results are
        published in (request key -> ``[result, parents waiting]``)."""
        return {}

    def _note_resident(self) -> None:
        """Called after each level of either pass (memory accounting)."""

    @contextmanager
    def _trace(self):
        """Record the ``(sweep, phase, level)`` steps of every sweep, where
        ``sweep`` is an opaque per-sweep tag that tells nested sweeps (the
        ORs a quantified level combines with) from their parent's steps.
        The sweep property tests assert down levels ascend and up levels
        descend."""
        self._sweep_trace = []
        try:
            yield self._sweep_trace
        finally:
            self._sweep_trace = None

    def _mark(self, sweep, phase: str, level: int) -> None:
        if self._sweep_trace is not None:
            self._sweep_trace.append((sweep, phase, level))

    # -- the two passes -------------------------------------------------

    def _sweep(self, spec: _Spec, roots) -> list:
        """Resolve the ``roots`` request pairs; returns their results."""
        pending = self._level_queue()
        try:
            out = [spec.child(x, y, pending) for x, y in roots]
            if not pending.levels():
                return out
            resolved = self._passes(spec, pending)
            return [resolved[r][0] if type(r) is tuple else r for r in out]
        finally:
            pending.close()

    def _passes(self, spec: _Spec, pending) -> dict:
        """The down and up passes over the filed requests; returns the
        published results of the requests no parent took."""
        resolved = self._sweep_open()
        self._active_resolved.append(resolved)
        plan = self._level_queue()
        tag = object()
        try:
            present = pending.levels()
            while present:
                level = present[0]
                self._mark(tag, "down", level)
                rows = pending.pop_level(level)
                plan.extend(level, self._expand(spec, level, rows, pending))
                self._note_resident()
                present = pending.levels()
            for level in reversed(plan.levels()):
                self._mark(tag, "up", level)
                self._reduce(spec, level, plan.pop_level(level), resolved)
                self._note_resident()
            return resolved
        finally:
            self._active_resolved.pop()  # sweeps nest: this one is last
            plan.close()

    def _expand(self, spec: _Spec, level: int, rows: list, pending) -> list:
        """Down step of one level: one plan row per distinct request."""
        agg = Counter(rows)
        spec.miss(len(agg))
        lv, lo, hi = spec.lv, spec.lo, spec.hi
        child = spec.child
        out = []
        for (x, y), count in agg.items():
            if lv(x) == level:
                x0, x1 = lo(x), hi(x)
            else:
                x0 = x1 = x
            if y > TRUE and lv(y) == level:
                y0, y1 = lo(y), hi(y)
            else:
                y0 = y1 = y
            out.append(
                (x, y, count, child(x0, y0, pending), child(x1, y1, pending))
            )
        return out

    def _reduce(self, spec: _Spec, level: int, rows: list, resolved: dict) -> None:
        """Up step of one level: combine, hash-cons, cache, publish."""
        los = [_take(resolved, row[3]) for row in rows]
        his = [_take(resolved, row[4]) for row in rows]
        cache, store = spec.cache, self._cache_store
        key = spec.key if cache is not None else None
        for (x, y, count, _, _), r in zip(rows, spec.combine(level, los, his)):
            if cache is not None:
                store(cache, key(x, y, level), r)
            resolved[(x, y)] = [r, count]

    # -- operations -----------------------------------------------------

    def _apply(self, op: int, a: int, b: int) -> int:
        return self._sweep(ApplySpec(self, op), ((a, b),))[0]

    def apply_not(self, a: int) -> int:
        # NOT a == a XOR TRUE: complement shares the iterative sweep.
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        cached = self._not_cache.get(a)
        if cached is not None:
            self.stats.not_hits += 1
            return cached
        self.stats.not_misses += 1
        result = self._apply(_OP_XOR, a, TRUE)
        return self._cache_store(self._not_cache, a, result)

    def _exist(self, a: int, levels: Tuple[int, ...]) -> int:
        return self._sweep(ExistSpec(self, levels), ((a, FALSE),))[0]

    def _and_exist(self, a: int, b: int, levels: Tuple[int, ...]) -> int:
        return self._sweep(AndExistSpec(self, levels), ((a, b),))[0]

    def _ite_vars(self, L: int, pairs: list) -> list:
        return self._sweep(IteVarSpec(self, L), pairs)

    def replace(self, a: int, permutation: Dict[int, int]) -> int:
        perm_vars = {k: v for k, v in permutation.items() if k != v}
        if not perm_vars:
            return a
        if len(set(perm_vars.values())) != len(perm_vars):
            raise BDDError("replace permutation must be injective")
        perm: Dict[int, int] = {}
        for old, new in perm_vars.items():
            self._check_var(old)
            self._check_var(new)
            perm[self._level_at_var[old]] = self._level_at_var[new]
        if self.is_terminal(a):
            return a
        key = (a, self._intern(tuple(sorted(perm.items()))))
        cached = self._replace_cache.get(key)
        if cached is not None:
            self.stats.replace_hits += 1
            return cached
        result = self._sweep(ReplaceSpec(self, perm), ((a, FALSE),))[0]
        return self._cache_store(self._replace_cache, key, result)
