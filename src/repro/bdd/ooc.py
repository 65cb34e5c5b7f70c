"""Out-of-core streaming BDD kernel (Adiar-style time-forward processing).

Every other kernel in this reproduction (reference, arena, ZDD) keeps
the whole node table in Python lists, so the analyses die once the
table outgrows RAM.  Sølvsten & van de Pol (PAPERS.md, arXiv
2505.11229) show that an external-memory BDD package handles exactly
the relational-product workloads Jedd generates by replacing the
depth-first recursion with *time-forward processing*: every operation
becomes one sweep **down** the levels (a level-ordered request queue —
a child request always sits at a strictly deeper level than its
parent, so processing levels in ascending order visits every request
after all its producers) followed by one sweep **up** (resolving each
level's requests through hash-consing, children before parents).  Both
phases touch data level-major and strictly forward, which is what
makes them spillable: cold levels of the request queue go to disk, the
node arrays page to disk under an LRU budget, and the unique table
overflows into level-major sorted runs.

:class:`OocBDDManager` is that kernel behind the existing
``DiagramBackend`` seam.  It subclasses
:class:`~repro.bdd.sweep.SweepKernel` and keeps the reference
kernel's *semantics* bit-for-bit: hash-consing stays global, so diagrams
are canonical and serialized wire bytes (``repro.bdd.io``) are
identical to the reference kernel's — the cross-kernel differential
suites assert exactly that.  What changes is the storage and the
evaluation strategy:

- node fields live in :class:`PagedIntArray` (fixed 4096-entry pages,
  shared LRU byte budget, dirty pages spilled to the spill directory),
- the unique table is a :class:`SpillableUniqueTable` (bounded
  in-memory delta dict over level-major sorted runs on disk),
- ``apply`` / ``exist`` / fused ``and_exist`` / ``replace`` run on
  the shared sweep driver (:mod:`repro.bdd.sweep`) with the request
  and plan queues held in a spillable :class:`_SweepStore`; no hot op
  recurses, so managers thousands of levels deep work,
- every resident structure is byte-accounted against
  ``memory_cap_bytes``; the per-structure budgets (page cache, unique
  delta, request queues, operation caches) spill or evict under
  pressure, so peak resident bytes stay under the cap plus the
  *cut-bounded* slack of the in-flight sweep (the set of resolved
  child results still awaited by shallower parents — Adiar's bound).

The cap is opt-in: ``memory_cap_bytes=None`` (the default) never
spills and behaves like a slightly slower reference kernel, which is
what the 5-way differential chains run.  ``benchmarks/test_ooc.py``
proves the capped regime: a solve under a cap smaller than the
uncapped footprint stays under cap + slack and produces wire bytes
identical to the reference kernel.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import tempfile
import weakref
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bdd.manager import FALSE, TRUE, BDDError
from repro.bdd.sweep import LevelQueue, SweepKernel

__all__ = [
    "OocBDDManager",
    "PagedIntArray",
    "SpillableUniqueTable",
    "SortedRun",
    "merge_runs",
]


# Page geometry: 4096 int64 entries = 32 KiB of payload per page.
_PAGE_SHIFT = 12
_PAGE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE - 1
_PAGE_PAYLOAD = _PAGE * 8
#: Accounted bytes per resident page (payload + array/object overhead).
_PAGE_BYTES = _PAGE_PAYLOAD + 64

# Documented per-entry byte estimates for the accounting.  These are
# CPython-measured ballparks (64-bit): a dict slot plus a 3-int tuple
# key plus an int value is ~100 bytes; queue/plan rows are small
# tuples of ints.  The cap test's slack absorbs the estimation error.
_EST_DICT_ENTRY = 100
_EST_ROW = 120
_EST_FENCE = 120
_EST_RESOLVED = 120
_EST_SET_NODE = 60

#: Unique-table run record: (level, low, high, node) as 4 little-endian
#: int64s, sorted by (level, low, high) — level-major on disk.
_RUN_RECORD = struct.Struct("<4q")
#: One fence key kept in memory per this many run records.
_FENCE_EVERY = 64
#: Sorted runs are k-way merged down to one once this many accumulate.
_MAX_RUNS = 8
#: Tombstone marker for deletions that may shadow older run entries.
_TOMB = -1

_ABSENT = object()


# ----------------------------------------------------------------------
# Paged node arrays
# ----------------------------------------------------------------------


class _PageCache:
    """Shared LRU byte budget across all :class:`PagedIntArray` pages.

    ``budget_bytes=None`` disables eviction (everything stays
    resident); otherwise faulting or allocating a page beyond the
    budget evicts least-recently-stamped pages, writing dirty ones to
    their array's page file first.
    """

    __slots__ = (
        "budget_bytes",
        "arrays",
        "resident_bytes",
        "stamp",
        "faults",
        "evictions",
        "bytes_written",
        "bytes_read",
    )

    def __init__(self, budget_bytes: Optional[int]) -> None:
        self.budget_bytes = budget_bytes
        self.arrays: List["PagedIntArray"] = []
        self.resident_bytes = 0
        self.stamp = 0
        self.faults = 0
        self.evictions = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def tick(self) -> int:
        self.stamp += 1
        return self.stamp

    def ensure_room(self, keep) -> None:
        """Evict oldest pages until under budget, never evicting ``keep``
        (the page the caller is about to read or write)."""
        if self.budget_bytes is None:
            return
        while self.resident_bytes > self.budget_bytes:
            victim_arr = None
            victim_pno = -1
            victim_stamp = None
            for arr in self.arrays:
                for pno, st in arr._stamps.items():
                    if (arr, pno) == keep:
                        continue
                    if victim_stamp is None or st < victim_stamp:
                        victim_arr, victim_pno, victim_stamp = arr, pno, st
            if victim_arr is None:
                return  # nothing evictable (single pinned page)
            victim_arr._evict(victim_pno)
            self.evictions += 1


class PagedIntArray:
    """A list of int64s stored in fixed-size pages behind a shared
    LRU byte budget.

    Supports exactly the surface the reference kernel uses on its
    parallel node lists — ``a[i]``, ``a[i] = v``, ``append``, ``pop``,
    ``len``, truthiness, and forward iteration — so the inherited
    ``mk`` / serializers / debug walks run unchanged.  Pages are
    spilled to ``<path>`` at ``page_index * 32KiB`` offsets; a page is
    only ever faulted back from disk, so an unevicted page never hits
    the filesystem at all (the uncapped regime does zero I/O).
    """

    __slots__ = ("_cache", "_path", "_file", "_pages", "_dirty", "_stamps", "_len")

    def __init__(self, cache: _PageCache, path, init: Sequence[int] = ()) -> None:
        # ``path`` may be a zero-argument callable resolved on first
        # spill, so creating an array costs no filesystem work at all.
        self._cache = cache
        self._path = path
        self._file = None
        self._pages: List[Optional[array]] = []
        self._dirty: set = set()
        self._stamps: Dict[int, int] = {}
        self._len = 0
        cache.arrays.append(self)
        for v in init:
            self.append(v)

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def _open_file(self):
        if self._file is None:
            path = self._path() if callable(self._path) else self._path
            # "r+b" keeps seek+write positional ("a+b" would force
            # every write to the end of the file on POSIX).
            self._file = open(path, "r+b" if os.path.exists(path) else "w+b")
        return self._file

    def _fault(self, pno: int) -> array:
        f = self._open_file()
        f.seek(pno * _PAGE_PAYLOAD)
        data = f.read(_PAGE_PAYLOAD)
        page = array("q")
        page.frombytes(data)
        if len(page) < _PAGE:
            page.extend([0] * (_PAGE - len(page)))
        self._pages[pno] = page
        self._stamps[pno] = self._cache.tick()
        self._cache.resident_bytes += _PAGE_BYTES
        self._cache.faults += 1
        self._cache.bytes_read += _PAGE_PAYLOAD
        self._cache.ensure_room((self, pno))
        return page

    def _evict(self, pno: int) -> None:
        page = self._pages[pno]
        if pno in self._dirty:
            f = self._open_file()
            f.seek(pno * _PAGE_PAYLOAD)
            f.write(page.tobytes())
            self._dirty.discard(pno)
            self._cache.bytes_written += _PAGE_PAYLOAD
        self._pages[pno] = None
        del self._stamps[pno]
        self._cache.resident_bytes -= _PAGE_BYTES

    def __getitem__(self, i: int) -> int:
        pno = i >> _PAGE_SHIFT
        page = self._pages[pno]
        if page is None:
            page = self._fault(pno)
        elif self._cache.budget_bytes is not None:
            self._stamps[pno] = self._cache.tick()
        return page[i & _PAGE_MASK]

    #: numpy's spelling of ``self[i]``, so sweeps read both node stores
    #: alike.
    item = __getitem__
    def __setitem__(self, i: int, value: int) -> None:
        pno = i >> _PAGE_SHIFT
        page = self._pages[pno]
        if page is None:
            page = self._fault(pno)
        elif self._cache.budget_bytes is not None:
            self._stamps[pno] = self._cache.tick()
        page[i & _PAGE_MASK] = value
        self._dirty.add(pno)

    def append(self, value: int) -> None:
        i = self._len
        pno = i >> _PAGE_SHIFT
        if pno == len(self._pages):
            page = array("q", bytes(_PAGE_PAYLOAD))
            self._pages.append(page)
            self._stamps[pno] = self._cache.tick()
            self._cache.resident_bytes += _PAGE_BYTES
            self._cache.ensure_room((self, pno))
        else:
            page = self._pages[pno]
            if page is None:
                page = self._fault(pno)
        page[i & _PAGE_MASK] = value
        self._dirty.add(pno)
        self._len = i + 1

    def pop(self) -> int:
        if not self._len:
            raise IndexError("pop from empty PagedIntArray")
        self._len -= 1
        return self[self._len]

    def __iter__(self) -> Iterator[int]:
        remaining = self._len
        for pno in range(len(self._pages)):
            if not remaining:
                return
            page = self._pages[pno]
            if page is None:
                # Transient read: iteration must not thrash the budget.
                f = self._open_file()
                f.seek(pno * _PAGE_PAYLOAD)
                data = f.read(_PAGE_PAYLOAD)
                page = array("q")
                page.frombytes(data)
                if len(page) < _PAGE:
                    page.extend([0] * (_PAGE - len(page)))
                self._cache.bytes_read += _PAGE_PAYLOAD
            n = min(remaining, _PAGE)
            if n == _PAGE:
                yield from page
            else:
                yield from page[:n]
            remaining -= n

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


# ----------------------------------------------------------------------
# Level-major sorted runs (the on-disk unique table)
# ----------------------------------------------------------------------


class SortedRun:
    """One immutable sorted run of ``(level, low, high) -> node``
    records on disk, with an in-memory fence-pointer index (one key per
    :data:`_FENCE_EVERY` records) so a point probe costs one seek plus
    one 2 KiB block read."""

    __slots__ = ("path", "count", "_fences", "_file")

    def __init__(self, path: str, items) -> None:
        """Write ``items`` (an iterable of ``(key, node)`` in sorted key
        order) to ``path``."""
        self.path = path
        self._fences: List[Tuple[int, int, int]] = []
        pack = _RUN_RECORD.pack
        count = 0
        with open(path, "wb") as f:
            buf = bytearray()
            for key, node in items:
                if count % _FENCE_EVERY == 0:
                    self._fences.append(key)
                buf += pack(key[0], key[1], key[2], node)
                count += 1
                if len(buf) >= 1 << 18:
                    f.write(buf)
                    buf.clear()
            if buf:
                f.write(buf)
        self.count = count
        self._file = None

    def _open(self):
        if self._file is None:
            self._file = open(self.path, "rb")
        return self._file

    def get(self, key: Tuple[int, int, int]) -> Optional[int]:
        """The stored node for ``key`` (may be the tombstone), or None."""
        if not self._fences or key < self._fences[0]:
            return None
        block = bisect_right(self._fences, key) - 1
        f = self._open()
        f.seek(block * _FENCE_EVERY * _RUN_RECORD.size)
        data = f.read(_FENCE_EVERY * _RUN_RECORD.size)
        lo, hi = 0, len(data) // _RUN_RECORD.size
        while lo < hi:
            mid = (lo + hi) // 2
            l, lw, h, node = _RUN_RECORD.unpack_from(data, mid * _RUN_RECORD.size)
            k = (l, lw, h)
            if k == key:
                return node
            if k < key:
                lo = mid + 1
            else:
                hi = mid
        return None

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int, int], int]]:
        with open(self.path, "rb") as f:
            while True:
                data = f.read(_RUN_RECORD.size * 4096)
                if not data:
                    return
                for off in range(0, len(data), _RUN_RECORD.size):
                    l, lw, h, node = _RUN_RECORD.unpack_from(data, off)
                    yield (l, lw, h), node

    def fence_bytes(self) -> int:
        return len(self._fences) * _EST_FENCE

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def unlink(self) -> None:
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass


def merge_runs(runs: Sequence[SortedRun], path: str) -> SortedRun:
    """K-way merge sorted runs into one, newest-wins, tombstones dropped.

    ``runs`` are ordered oldest first (the order the table spilled
    them); for equal keys the record from the newest run shadows the
    rest, and a surviving tombstone erases the key entirely (nothing
    older can resurrect it once the merge is total).  Streaming: only
    one read buffer per run is resident at a time.
    """
    import heapq

    def merged():
        # Heap entries sort by (key, -run_index): for equal keys the
        # newest run pops first and is authoritative.
        heap = []
        for prio, run in enumerate(runs):
            it = iter(run)
            first = next(it, None)
            if first is not None:
                heap.append((first[0], -prio, first[1], it))
        heapq.heapify(heap)
        while heap:
            key, negprio, node, it = heapq.heappop(heap)
            # Drain every shadowed (older) record for the same key.
            while heap and heap[0][0] == key:
                _, dup_neg, _, dup_it = heapq.heappop(heap)
                nxt = next(dup_it, None)
                if nxt is not None:
                    heapq.heappush(heap, (nxt[0], dup_neg, nxt[1], dup_it))
            nxt = next(it, None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], negprio, nxt[1], it))
            if node != _TOMB:
                yield key, node

    return SortedRun(path, merged())


class SpillableUniqueTable:
    """The ``(level, low, high) -> node`` unique table, spillable.

    A bounded in-memory *delta* dict absorbs all writes; when it
    outgrows its byte budget it is sorted and flushed as a new
    :class:`SortedRun`.  Lookups probe the delta, then runs newest
    first.  Deletions write tombstones (a deleted key may still exist
    in an older run).  Runs are k-way merged once :data:`_MAX_RUNS`
    accumulate.  ``len`` is exact (maintained by presence checks on
    every mutation) because ``check_integrity`` compares it against
    the live node count.
    """

    __slots__ = (
        "mgr",
        "delta",
        "runs",
        "count",
        "_last_miss",
        "flushes",
        "merges",
        "disk_probes",
    )

    def __init__(self, mgr: "OocBDDManager") -> None:
        self.mgr = mgr
        self.delta: Dict[Tuple[int, int, int], int] = {}
        self.runs: List[SortedRun] = []
        self.count = 0
        # mk() always probes before inserting; remembering the probed
        # key lets the insert skip a second disk probe.
        self._last_miss = None
        self.flushes = 0
        self.merges = 0
        self.disk_probes = 0

    def __len__(self) -> int:
        return self.count

    def _probe(self, key) -> object:
        """Delta-then-runs probe; returns the node, or _ABSENT."""
        v = self.delta.get(key, _ABSENT)
        if v is not _ABSENT:
            return _ABSENT if v == _TOMB else v
        for run in reversed(self.runs):
            self.disk_probes += 1
            node = run.get(key)
            if node is not None:
                return _ABSENT if node == _TOMB else node
        return _ABSENT

    def get(self, key, default=None):
        v = self._probe(key)
        if v is _ABSENT:
            self._last_miss = key
            return default
        self._last_miss = None
        return v

    def __contains__(self, key) -> bool:
        return self._probe(key) is not _ABSENT

    def __setitem__(self, key, node: int) -> None:
        if key == self._last_miss:
            prior = _ABSENT
            self._last_miss = None
        else:
            prior = self._probe(key)
        if prior is _ABSENT:
            self.count += 1
        self.delta[key] = node
        budget = self.mgr._unique_budget
        if budget is not None and len(self.delta) * _EST_DICT_ENTRY > budget:
            self.flush()

    def __delitem__(self, key) -> None:
        prior = self._probe(key)
        if prior is _ABSENT:
            raise KeyError(key)
        self.count -= 1
        self._last_miss = None
        if self.runs:
            self.delta[key] = _TOMB
        else:
            self.delta.pop(key, None)

    def flush(self) -> None:
        """Spill the delta as a new level-major sorted run."""
        if not self.delta:
            return
        path = self.mgr._spill_path(f"unique-run-{self.flushes}.bin")
        run = SortedRun(path, sorted(self.delta.items()))
        self.runs.append(run)
        self.delta.clear()
        self.flushes += 1
        self.mgr._ooc["unique_flushes"] += 1
        self.mgr._ooc["spill_bytes_written"] += run.count * _RUN_RECORD.size
        if len(self.runs) >= _MAX_RUNS:
            self.merge()
        self.mgr._note_resident()

    def merge(self) -> None:
        if len(self.runs) < 2:
            return
        path = self.mgr._spill_path(f"unique-merge-{self.merges}.bin")
        merged = merge_runs(self.runs, path)
        for run in self.runs:
            run.unlink()
        self.runs = [merged]
        self.merges += 1
        self.mgr._ooc["unique_merges"] += 1

    def run_entries(self) -> int:
        return sum(r.count for r in self.runs)

    def resident_bytes(self) -> int:
        return len(self.delta) * _EST_DICT_ENTRY + sum(
            r.fence_bytes() for r in self.runs
        )

    def close(self) -> None:
        for run in self.runs:
            run.unlink()
        self.runs = []


# ----------------------------------------------------------------------
# Level index without per-level node sets
# ----------------------------------------------------------------------


class _CountSlot:
    """Stand-in for one level's node set: counts only.

    The hot path (``mk``, ``gc``) needs just ``add`` / ``discard`` /
    ``len``; real membership sets are materialized only for the
    duration of a reordering pass (see
    :meth:`OocBDDManager._materialized_levels`), because adjacent-level
    swaps genuinely iterate level populations.
    """

    __slots__ = ("owner", "level", "count")

    def __init__(self, owner: "OocBDDManager", level: int) -> None:
        self.owner = owner
        self.level = level
        self.count = 0

    def add(self, node: int) -> None:
        self.count += 1

    def discard(self, node: int) -> None:
        self.count -= 1

    def __len__(self) -> int:
        return self.count

    def __contains__(self, node: int) -> bool:
        m = self.owner
        return node > TRUE and m._low[node] != -1 and m._level[node] == self.level

    def __iter__(self) -> Iterator[int]:
        m = self.owner
        lvl = self.level
        for node, (l, lo) in enumerate(zip(m._level, m._low)):
            if node > TRUE and l == lvl and lo != -1:
                yield node


class _LevelIndex:
    """``manager._at_level`` replacement: count slots normally, real
    sets while a reordering pass is live."""

    __slots__ = ("owner", "slots", "sets")

    def __init__(self, owner: "OocBDDManager", num_levels: int) -> None:
        self.owner = owner
        self.slots = [_CountSlot(owner, i) for i in range(num_levels)]
        self.sets: Optional[List[set]] = None

    def __getitem__(self, level: int):
        if self.sets is not None:
            return self.sets[level]
        return self.slots[level]

    def __setitem__(self, level: int, value) -> None:
        # Only the swap rewrite assigns whole level populations, and it
        # only runs inside a materialized reorder pass.
        if self.sets is None:
            raise BDDError("level index assignment outside a reorder pass")
        self.sets[level] = value

    def __iter__(self):
        return iter(self.sets if self.sets is not None else self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def extend(self, iterable) -> None:
        # add_vars() passes fresh set()s; substitute our slot kind.
        for _ in iterable:
            level = len(self.slots)
            self.slots.append(_CountSlot(self.owner, level))
            if self.sets is not None:
                self.sets.append(set())

    def materialize(self) -> None:
        m = self.owner
        sets: List[set] = [set() for _ in range(len(self.slots))]
        for node, (lvl, lo) in enumerate(zip(m._level, m._low)):
            if node > TRUE and lo != -1:
                sets[lvl].add(node)
        self.sets = sets

    def release(self) -> None:
        assert self.sets is not None
        for slot, s in zip(self.slots, self.sets):
            slot.count = len(s)
        self.sets = None


# ----------------------------------------------------------------------
# Spillable level-bucketed sweep queues
# ----------------------------------------------------------------------


class _SweepStore(LevelQueue):
    """The sweeps' level queue with its coldest buckets spillable to one
    chunk file in the spill directory.

    A bucket is written completely before it is read (see
    :class:`~repro.bdd.sweep.LevelQueue`), so spilled chunks are only
    ever appended and then streamed back once.
    """

    __slots__ = ("mgr", "rows_in_mem", "file", "chunks", "path")

    def __init__(self, mgr: "OocBDDManager") -> None:
        super().__init__()
        self.mgr = mgr
        self.rows_in_mem = 0
        self.file = None
        self.chunks: Dict[int, List[Tuple[int, int]]] = {}
        self.path = None
        mgr._active_stores.append(self)

    def push(self, level: int, row) -> None:
        super().push(level, row)
        self._added(1)

    def extend(self, level: int, rows: list) -> None:
        super().extend(level, rows)
        self._added(len(rows))

    def _added(self, count: int) -> None:
        self.rows_in_mem += count
        budget = self.mgr._queue_budget
        if budget is not None and self.rows_in_mem * _EST_ROW > budget:
            self._spill()

    def _spill(self) -> None:
        if self.file is None:
            self.path = self.mgr._spill_path(
                f"sweep-{id(self):x}-{self.mgr._ooc['sweeps']}.chunks"
            )
            self.file = open(self.path, "w+b")
        target = self.rows_in_mem // 2
        # Spill the fattest buckets first: fewest chunks per spilled row.
        for level, rows in sorted(
            self.buckets.items(), key=lambda kv: len(kv[1]), reverse=True
        ):
            if self.rows_in_mem <= target:
                break
            if not rows:
                continue
            data = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
            self.file.seek(0, 2)
            off = self.file.tell()
            self.file.write(data)
            self.chunks.setdefault(level, []).append((off, len(data)))
            self.rows_in_mem -= len(rows)
            self.mgr._ooc["queue_rows_spilled"] += len(rows)
            self.mgr._ooc["spill_bytes_written"] += len(data)
            self.buckets[level] = []

    def levels(self) -> List[int]:
        out = set(super().levels())
        out.update(self.chunks)
        return sorted(out)

    def pop_level(self, level: int) -> list:
        rows = super().pop_level(level)
        self.rows_in_mem -= len(rows)
        for off, nbytes in self.chunks.pop(level, ()):
            self.file.seek(off)
            rows.extend(pickle.loads(self.file.read(nbytes)))
            self.mgr._ooc["spill_bytes_read"] += nbytes
        return rows

    def close(self) -> None:
        if self.file is not None:
            self.file.close()
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self.file = None
        super().close()
        self.chunks.clear()
        self.rows_in_mem = 0
        try:
            self.mgr._active_stores.remove(self)
        except ValueError:
            pass


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------

_OOC_COUNTERS = (
    "sweeps",
    "queue_rows_spilled",
    "unique_flushes",
    "unique_merges",
    "spill_bytes_written",
    "spill_bytes_read",
)


class OocBDDManager(SweepKernel):
    """Out-of-core BDD kernel: disk-backed node store, streaming sweeps.

    Parameters (beyond :class:`BDDManager`'s):

    memory_cap_bytes:
        Total byte budget for resident kernel state, or ``None``
        (default; also read from ``JEDD_OOC_CAP_BYTES``) for the
        uncapped regime that never touches disk.  The cap is divided
        into per-structure budgets: 50% page cache, 20% unique-table
        delta, 12% operation caches, the rest request queues.
    spill_dir:
        Directory for page files / sorted runs / queue chunks.  By
        default (or via ``JEDD_OOC_SPILL_DIR``) a private temporary
        directory is created lazily on first spill and removed when
        the manager is garbage collected.
    """

    telemetry_name = "bdd"

    def __init__(
        self,
        num_vars: int,
        gc_threshold: int = 1 << 18,
        cache_limit: Optional[int] = None,
        memory_cap_bytes: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        super().__init__(num_vars, gc_threshold, cache_limit)
        if memory_cap_bytes is None:
            env = os.environ.get("JEDD_OOC_CAP_BYTES")
            if env:
                memory_cap_bytes = int(env)
        if memory_cap_bytes is not None and memory_cap_bytes <= 0:
            raise BDDError("memory_cap_bytes must be positive")
        self.memory_cap_bytes = memory_cap_bytes
        self._spill_dir = spill_dir or os.environ.get("JEDD_OOC_SPILL_DIR")
        self._spill_dir_ready = False
        self._finalizer = None
        self._spill_serial = 0
        cap = memory_cap_bytes
        self._page_cache = _PageCache(cap and max(int(cap * 0.50), 4 * _PAGE_BYTES))
        self._unique_budget = cap and max(int(cap * 0.20), 64 * _EST_DICT_ENTRY)
        self._queue_budget = cap and max(int(cap * 0.06), 64 * _EST_ROW)
        if cap is not None and cache_limit is None:
            # Six operation caches share ~12% of the cap.
            self.cache_limit = max(256, int(cap * 0.12) // (6 * _EST_DICT_ENTRY))
        # Replace the base kernel's in-memory storage with the
        # spillable equivalents (terminal entries carried over).
        self._level = PagedIntArray(
            self._page_cache, self._lazy_path("level"), self._level
        )
        self._low = PagedIntArray(self._page_cache, self._lazy_path("low"), self._low)
        self._high = PagedIntArray(
            self._page_cache, self._lazy_path("high"), self._high
        )
        self._refs = PagedIntArray(
            self._page_cache, self._lazy_path("refs"), self._refs
        )
        self._parents = PagedIntArray(
            self._page_cache, self._lazy_path("parents"), self._parents
        )
        self._free = PagedIntArray(
            self._page_cache, self._lazy_path("free"), self._free
        )
        self._unique = SpillableUniqueTable(self)
        self._at_level = _LevelIndex(self, num_vars)
        self._active_stores: List[_SweepStore] = []
        self._ooc: Dict[str, int] = {k: 0 for k in _OOC_COUNTERS}
        self._peak_resident = 0
        self._mk_tick = 0
        self._note_resident()

    # -- spill directory ------------------------------------------------

    def _lazy_path(self, name: str):
        """Path factory for a page file; resolving it creates the spill
        directory, but PagedIntArray only resolves it when a page is
        actually spilled — an uncapped manager does zero filesystem
        work for its whole lifetime."""
        return lambda: os.path.join(self._spill_dir_path(), f"{name}.pages")

    def _spill_dir_path(self, create: bool = True) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="jedd-ooc-")
            self._spill_dir_ready = True
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._spill_dir, True
            )
        if create and not self._spill_dir_ready:
            os.makedirs(self._spill_dir, exist_ok=True)
            self._spill_dir_ready = True
        return self._spill_dir

    def _spill_path(self, name: str) -> str:
        self._spill_serial += 1
        return os.path.join(
            self._spill_dir_path(), f"{self._spill_serial:06d}-{name}"
        )

    @property
    def spill_dir(self) -> str:
        """The directory spill files land in (created on demand)."""
        return self._spill_dir_path()

    def close(self) -> None:
        """Release file handles and remove owned spill files."""
        for arr in (
            self._level,
            self._low,
            self._high,
            self._refs,
            self._parents,
            self._free,
        ):
            arr.close()
        self._unique.close()
        for store in list(self._active_stores):
            store.close()
        if self._finalizer is not None:
            self._finalizer()

    # -- accounting -----------------------------------------------------

    def resident_bytes(self) -> int:
        """Accounted bytes of every resident kernel structure.

        This is the quantity the cap governs: resident node-array
        pages, the unique-table delta and its run fences, the
        operation caches, in-flight sweep queues, and the upward
        phase's resolved-results cut.
        """
        total = self._page_cache.resident_bytes
        total += self._unique.resident_bytes()
        total += sum(self.cache_stats().values()) * _EST_DICT_ENTRY
        for store in self._active_stores:
            total += store.rows_in_mem * _EST_ROW
        for resolved in self._active_resolved:
            total += len(resolved) * _EST_RESOLVED
        if self._at_level.sets is not None:
            total += sum(len(s) for s in self._at_level.sets) * _EST_SET_NODE
        return total

    @property
    def peak_resident_bytes(self) -> int:
        return self._peak_resident

    def _note_resident(self) -> None:
        r = self.resident_bytes()
        if r > self._peak_resident:
            self._peak_resident = r

    def ooc_profile(self) -> Dict[str, int]:
        """Spill/sweep telemetry (exported as ``ooc.*`` sampler gauges)."""
        out = dict(self._ooc)
        out["cap_bytes"] = self.memory_cap_bytes or 0
        out["resident_bytes"] = self.resident_bytes()
        out["peak_resident_bytes"] = self._peak_resident
        out["pages_resident"] = self._page_cache.resident_bytes // _PAGE_BYTES
        out["pages_faulted"] = self._page_cache.faults
        out["pages_evicted"] = self._page_cache.evictions
        out["page_bytes_written"] = self._page_cache.bytes_written
        out["page_bytes_read"] = self._page_cache.bytes_read
        out["unique_delta_entries"] = len(self._unique.delta)
        out["unique_runs"] = len(self._unique.runs)
        out["unique_run_entries"] = self._unique.run_entries()
        out["unique_disk_probes"] = self._unique.disk_probes
        return out

    def reset_ooc_profile(self) -> None:
        for k in _OOC_COUNTERS:
            self._ooc[k] = 0
        self._page_cache.faults = 0
        self._page_cache.evictions = 0
        self._page_cache.bytes_written = 0
        self._page_cache.bytes_read = 0
        self._unique.disk_probes = 0
        self._peak_resident = self.resident_bytes()

    # -- node construction ----------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        node = super().mk(level, low, high)
        self._mk_tick += 1
        if not self._mk_tick & 0x3FF:
            self._note_resident()
        return node

    # -- sweep hooks (the driver is repro.bdd.sweep) ---------------------

    # Shared sweep operations, bound on this class as well so that
    # instrumentation patching methods per class (it walks
    # ``cls.__dict__``) sees them.
    replace = SweepKernel.replace
    apply_not = SweepKernel.apply_not

    def _level_queue(self) -> _SweepStore:
        return _SweepStore(self)

    def _sweep_open(self) -> dict:
        self._ooc["sweeps"] += 1
        return {}

    # -- reordering -----------------------------------------------------

    @contextmanager
    def _materialized_levels(self):
        if self._at_level.sets is not None:
            yield  # re-entrant: already materialized by an outer pass
            return
        self._at_level.materialize()
        self._note_resident()
        try:
            yield
        finally:
            self._at_level.release()

    def swap_levels(self, level: int) -> int:
        with self._materialized_levels():
            return super().swap_levels(level)

    def set_order(self, order: Sequence[int]) -> None:
        with self._materialized_levels():
            super().set_order(order)

    def reorder(self, *args, **kwargs):
        with self._materialized_levels():
            return super().reorder(*args, **kwargs)

    def _swap_adjacent(self, i: int) -> None:
        if self._at_level.sets is None:
            # Direct call outside a reordering pass (tests do this):
            # materialize transiently for the single swap.
            with self._materialized_levels():
                super()._swap_adjacent(i)
            return
        super()._swap_adjacent(i)

    # -- garbage collection ---------------------------------------------

    def gc(self) -> int:
        """Mark-and-sweep in level order with a byte-per-node mark map.

        The base implementation allocates a Python ``bool`` list and a
        recursion stack proportional to the whole table; here marking
        runs as one more downward level sweep (children are strictly
        deeper, so level-bucketed marking visits every node once) over
        the paged arrays, with a ``bytearray`` mark map — 1 byte per
        slot instead of an 8-byte pointer.
        """
        from time import perf_counter

        start = perf_counter()
        self.stats.note_live(self.num_nodes)
        size = len(self._level)
        marked = bytearray(size)
        marked[FALSE] = marked[TRUE] = 1
        num_vars = self._num_vars
        buckets: List[array] = [array("q") for _ in range(num_vars)]
        level_arr, low_arr, high_arr = self._level, self._low, self._high
        for node, (r, lvl) in enumerate(zip(self._refs, level_arr)):
            if r > 0 and node > TRUE and not marked[node]:
                marked[node] = 1
                buckets[lvl].append(node)
        for lvl in range(num_vars):
            for node in buckets[lvl]:
                for child in (low_arr[node], high_arr[node]):
                    if child > TRUE and not marked[child]:
                        marked[child] = 1
                        buckets[level_arr[child]].append(child)
            buckets[lvl] = array("q")
        freed = 0
        for node in range(2, size):
            if marked[node]:
                continue
            lo = low_arr[node]
            if lo == -1:
                continue  # already on the free list
            hi = high_arr[node]
            lvl = level_arr[node]
            key = (lvl, lo, hi)
            if self._unique.get(key) == node:
                del self._unique[key]
            self._at_level[lvl].discard(node)
            for child in (lo, hi):
                if child > TRUE:
                    self._parents[child] -= 1
            low_arr[node] = -1
            high_arr[node] = -1
            self._parents[node] = 0
            self._free.append(node)
            freed += 1
        self._clear_caches()
        self.gc_count += 1
        seconds = perf_counter() - start
        stats = self.stats
        stats.gc_runs += 1
        stats.gc_seconds += seconds
        stats.last_gc_seconds = seconds
        stats.gc_reclaimed += freed
        self._note_resident()
        for listener in self.gc_listeners:
            listener(seconds, freed)
        return freed
