"""Shared plumbing: locating the package, seeded inputs, statistics,
the correctness tally, and the timed-round loop of the cold workloads."""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from calibrate import timed

#: Checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for spill files, checkpoints and traces (gitignored).
WORK = os.path.join(ROOT, ".perfbench_work")

#: Set-ups per block.  A measured run sets up one block before its
#: timed work and one after, and ``setup_s`` is the median of both.
SETUP_REPEATS = 3
#: Timed rounds per run of a cold workload, at least.
MIN_ROUNDS = 2

#: The five Table 2 presets, in the paper's order.
TABLE2_PRESETS = ("javac-s", "compress", "javac", "sablecc", "jedit")


class MissingSource(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def import_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; refuse to fall
    back to any other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSource(f"no package source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(run_id: str) -> str:
    path = os.path.join(WORK, run_id)
    os.makedirs(path, exist_ok=True)
    return path


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


#: Share of a preset's assign/store/load rows a seed removes.
EDIT_SHARE = 0.01


def preset_facts(name: str, seed: int):
    """The preset program with a seeded edit: ``preset(name)`` (which
    runs ``synthesize()`` at the preset's sizes and generator seed) minus
    a seed-chosen ``EDIT_SHARE`` of its assign, store and load rows.

    Re-seeding ``synthesize()`` itself changes a preset's solve work by
    up to 2x (fixpoint depth 11..19 rounds on javac), so the bench seed
    edits one fixed program instead, as a new version of the same code
    base would: the work stays comparable across seeds while every seed
    still gives the program different facts."""
    from repro.analyses import preset

    facts = preset(name)
    rng = random.Random(f"{name}/{seed}")
    for attr in ("assigns", "stores", "loads"):
        rows = getattr(facts, attr)
        drop = set(rng.sample(range(len(rows)), int(len(rows) * EDIT_SHARE)))
        setattr(facts, attr, [r for i, r in enumerate(rows) if i not in drop])
    return facts


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_work(manager) -> int:
    """Nodes created plus operation-cache misses: the deterministic
    work count the repository's perf notes use."""
    stats = manager.stats
    scalar = sum(misses for _, _, misses in stats.scalar_caches())
    return stats.nodes_created + stats.op_totals()[1] + scalar


class Tally:
    """Counts checked results; a mismatch or a raised error is a
    failure, reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def error(self, what: str, err: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED {what}: {type(err).__name__}: {err}",
              file=sys.stderr)


class KernelCounters:
    """Counter snapshots from the managers' public ``stats``, summed
    over every manager a round used (peaks take the maximum)."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {
            "bdd.nodes_created": 0, "bdd.cache_hits": 0,
            "bdd.cache_misses": 0, "bdd.peak_live_nodes": 0,
            "bdd.gc_runs": 0,
        }
        self.ooc: Dict[str, int] = {}

    def add(self, manager) -> None:
        manager.table_stats()  # refreshes the live-node high-water mark
        stats = manager.stats
        hits, misses = stats.op_totals()
        for _, h, m in stats.scalar_caches():
            hits += h
            misses += m
        v = self.values
        v["bdd.nodes_created"] += stats.nodes_created
        v["bdd.cache_hits"] += hits
        v["bdd.cache_misses"] += misses
        v["bdd.gc_runs"] += stats.gc_runs
        v["bdd.peak_live_nodes"] = max(
            v["bdd.peak_live_nodes"], stats.peak_live_nodes
        )
        profile = getattr(manager, "ooc_profile", None)
        if profile is not None:
            for key, value in profile().items():
                self.ooc[key] = max(self.ooc.get(key, 0), value)

    def bump(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def metrics(self) -> Dict[str, float]:
        v = dict(self.values)
        total = v.pop("bdd.cache_hits") + v["bdd.cache_misses"]
        hits = total - v["bdd.cache_misses"]
        v["bdd.cache_hit_ratio"] = hits / total if total else 0.0
        for key in ("peak_resident_bytes", "spill_bytes_written",
                    "pages_evicted", "unique_flushes", "queue_rows_spilled"):
            v[f"ooc.{key}"] = self.ooc.get(key, 0)
        return v


class ColdWorkload:
    """A workload of repeated cold runs.

    Subclasses define ``setup(seed)`` (the timed set-up, returning the
    state the rounds use), ``oracle(state)`` (untimed reference results)
    and ``round(state, oracle, tally, counters)``, which returns the
    seconds of each timed item of one round (a list per item).
    ``PRIMARY`` and ``SECONDARY`` name the items summed into
    ``primary_s`` and ``secondary_s``.
    """

    PRIMARY: tuple = ()
    SECONDARY: tuple = ()

    def setup(self, seed: int):
        raise NotImplementedError

    def oracle(self, state):
        raise NotImplementedError

    def round(self, state, oracle, tally: Tally, counters) -> Dict[str, List[float]]:
        raise NotImplementedError

    def trace_extra(self, state, tally: Tally, counters) -> None:
        """Work the traced pass adds after its round, for layers the
        timed rounds do not reach (default: none)."""

    def extra_metrics(self, items: Dict[str, List[float]]) -> Dict[str, float]:
        """Per-layer figures derived from the per-item times."""
        return {}


def run_item(out: Dict[str, List[float]], tally: Tally, key: str, fn: Callable, *args):
    """Time one item of a round onto ``out[key]``; an exception is
    counted as a failure and yields ``None``."""
    try:
        seconds, result = timed(fn, *args)
    except Exception as err:  # counted and reported; the run goes on
        tally.error(key, err)
        return None
    out.setdefault(key, []).append(seconds)
    return result


def run_setups(workload, seed: int, repeats: int):
    """Set up ``repeats`` times; returns (seconds of each, last state)."""
    times = []
    for _ in range(repeats):
        seconds, state = timed(workload.setup, seed)
        times.append(seconds)
    return times, state


def summarize_items(workload, items: Dict[str, List[float]]) -> Dict[str, float]:
    """``primary_s``/``secondary_s``: the sum over a side's items of
    each item's median time in the run."""
    return {
        "primary_s": sum(median(items[k]) for k in workload.PRIMARY),
        "secondary_s": sum(median(items[k]) for k in workload.SECONDARY),
    }


def run_rounds(
    workload,
    state,
    oracle,
    tally: Tally,
    seconds: Optional[float],
    rounds: Optional[int] = None,
    counters=None,
) -> Dict[str, List[float]]:
    """Exactly ``rounds`` timed rounds, or rounds for ``seconds``: at
    least ``MIN_ROUNDS``, then no round that would end after the
    deadline at the last round's pace."""
    items: Dict[str, List[float]] = {}
    start = perf_counter()
    done = 0
    while True:
        began = perf_counter()
        for key, values in workload.round(
            state, oracle, tally, counters if done == 0 else None
        ).items():
            items.setdefault(key, []).extend(values)
        done += 1
        now = perf_counter()
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= MIN_ROUNDS and now + (now - began) - start > seconds:
            break
    return items
