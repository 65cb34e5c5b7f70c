"""Continuous perf baseline: normalized benchmark artifacts + diff mode.

``python -m repro.bench --out BENCH.json`` runs the repo's standard
workloads (the whole-program points-to analysis from ``benchmarks/``,
on the serial, parallel, and arena-kernel configurations, plus a cheap
transitive-closure canary) and writes one normalized JSON artifact:
per-workload wall clock, kernel work (nodes created + cache misses),
peak live nodes, and bytes shipped over the worker wire, stamped with
machine and commit metadata so artifacts from different CI runs are
comparable.

``python -m repro.bench --diff OLD.json NEW.json --threshold 0.25``
compares two artifacts workload by workload and exits non-zero when any
tracked measure regressed by more than the threshold — the regression
gate CI applies against the committed baseline.  Wall clock is gated
with the threshold as-is; the deterministic counters (kernel work, peak
nodes, shipped bytes) use the same relative threshold but ignore
small-absolute-value noise (see ``_MIN_BASE``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "run_workloads", "write_artifact", "diff",
    "WORKLOADS", "OPT_IN_WORKLOADS", "main",
]

SCHEMA = 1

#: Measures gated by ``diff`` (higher is worse for all of them).
MEASURES = ("wall_seconds", "kernel_work", "peak_nodes", "bytes_shipped")

#: A counter regression below this absolute base value is ignored: tiny
#: workload components fluctuate by a handful of nodes without meaning.
_MIN_BASE = {"wall_seconds": 0.05, "kernel_work": 1000.0,
             "peak_nodes": 500.0, "bytes_shipped": 4096.0}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _pointsto_facts(chain_depth: int, preset_name: str = "javac"):
    """The javac preset plus a deep copy chain (the ``benchmarks/``
    parallel workload), rebuilt fresh per run."""
    from repro.analyses import preset

    facts = preset(preset_name)
    method = facts.methods[0]
    prev = None
    for i in range(chain_depth):
        var = f"chain{i}"
        facts.variables.append(var)
        facts.method_vars.append((method, var))
        facts.var_types.append((var, facts.classes[0]))
        if prev is None:
            facts.allocs.append((var, "chainsite"))
            facts.alloc_types.append(("chainsite", facts.classes[-1]))
        else:
            facts.assigns.append((var, prev))
        prev = var
    return facts


def _run_pointsto(
    chain_depth: int,
    engine: str = "seminaive",
    workers: Optional[int] = None,
    kernel: Optional[str] = None,
) -> Dict[str, float]:
    from repro.analyses import AnalysisUniverse, PointsTo
    from repro.relations import ExecutionPolicy

    facts = _pointsto_facts(chain_depth)
    au = AnalysisUniverse(facts, kernel=kernel)
    solver = PointsTo(au, policy=ExecutionPolicy(engine=engine, workers=workers))
    t0 = time.perf_counter()
    solver.solve()
    wall = time.perf_counter() - t0
    manager = au.universe.manager
    stats = manager.stats
    hits, misses = stats.op_totals()
    table = manager.table_stats()
    ps = solver.fixpoint.parallel_stats if solver.fixpoint else None
    out = {
        "wall_seconds": wall,
        "kernel_work": float(stats.nodes_created + misses),
        "nodes_created": float(stats.nodes_created),
        "cache_misses": float(misses),
        "cache_hits": float(hits),
        "peak_nodes": float(table["peak_live_nodes"]),
        "bytes_shipped": float((ps or {}).get("bytes_shipped", 0)),
        "bytes_returned": float((ps or {}).get("bytes_returned", 0)),
        "result_tuples": float(solver.pt.size()),
        "iterations": float(solver.fixpoint.iterations
                            if solver.fixpoint else 0),
    }
    if ps is not None:
        out["parallel_broken"] = float(bool(ps.get("broken")))
    return out


#: Default memory cap for the ``pointsto-xl`` workload.  The uncapped
#: solve keeps tens of MB of kernel state resident (see
#: ``benchmarks/test_ooc.py``, which measures rather than assumes), so
#: 12 MiB forces every spill mechanism: unique-table runs, page
#: eviction, and sweep-queue chunks.  (At 16 MiB the ~190k-node table
#: fits the page budget and no page is ever evicted.)
XL_CAP_BYTES = 12 << 20


def _run_pointsto_xl(chain_depth: int) -> Dict[str, float]:
    """Whole-program points-to on the scaled ``javac-xl`` preset under
    the out-of-core kernel with a memory cap below the uncapped
    footprint — the same workload ``benchmarks/test_ooc.py`` uses to
    prove cap enforcement.  ``chain_depth`` is ignored: the preset
    itself is the scaled workload, and appending the synthetic copy
    chain would change the regime the cap was sized against (the chain
    widens the sweep cut, whose resolved maps are bounded by the cut,
    not the byte budgets)."""
    from repro.analyses import AnalysisUniverse, PointsTo, preset
    from repro.relations import ExecutionPolicy

    facts = preset("javac-xl")
    cap = int(os.environ.get("JEDD_OOC_CAP_BYTES", XL_CAP_BYTES))
    prior = os.environ.get("JEDD_OOC_CAP_BYTES")
    os.environ["JEDD_OOC_CAP_BYTES"] = str(cap)
    try:
        au = AnalysisUniverse(facts, kernel="ooc")
    finally:
        if prior is None:
            os.environ.pop("JEDD_OOC_CAP_BYTES", None)
        else:
            os.environ["JEDD_OOC_CAP_BYTES"] = prior
    solver = PointsTo(au, policy=ExecutionPolicy(engine="seminaive"))
    t0 = time.perf_counter()
    solver.solve()
    wall = time.perf_counter() - t0
    manager = au.universe.manager
    stats = manager.stats
    hits, misses = stats.op_totals()
    table = manager.table_stats()
    prof = manager.ooc_profile()
    return {
        "wall_seconds": wall,
        "kernel_work": float(stats.nodes_created + misses),
        "nodes_created": float(stats.nodes_created),
        "cache_misses": float(misses),
        "cache_hits": float(hits),
        "peak_nodes": float(table["peak_live_nodes"]),
        "bytes_shipped": 0.0,
        "result_tuples": float(solver.pt.size()),
        "iterations": float(solver.fixpoint.iterations
                            if solver.fixpoint else 0),
        "cap_bytes": float(prof["cap_bytes"]),
        "peak_resident_bytes": float(prof["peak_resident_bytes"]),
        "spill_bytes_written": float(prof["spill_bytes_written"]),
        "unique_flushes": float(prof["unique_flushes"]),
        "pages_evicted": float(prof["pages_evicted"]),
        "queue_rows_spilled": float(prof["queue_rows_spilled"]),
    }


def _run_closure(n: int = 48) -> Dict[str, float]:
    """Cheap canary: transitive closure of a cycle + spurs, serial."""
    from repro.relations import FixpointEngine, open_universe

    u = open_universe(
        backend="bdd",
        domains={"N": max(64, n * 2)},
        attributes={"src": "N", "dst": "N"},
        physdoms={"P1": 7, "P2": 7, "P3": 7},
    )
    edges = [(i, i + 1) for i in range(n)] + [(n, 0), (3, n + 2)]
    edge = u.relation_of(["src", "dst"], edges, ["P1", "P2"])
    eng = FixpointEngine(u, "seminaive")
    eng.fact("edge", edge)
    eng.relation("path", edge)
    eng.rule("path", ("x", "z"), [("edge", ("x", "y")), ("path", ("y", "z"))])
    t0 = time.perf_counter()
    solution = eng.solve()
    wall = time.perf_counter() - t0
    manager = u.manager
    hits, misses = manager.stats.op_totals()
    return {
        "wall_seconds": wall,
        "kernel_work": float(manager.stats.nodes_created + misses),
        "nodes_created": float(manager.stats.nodes_created),
        "cache_misses": float(misses),
        "cache_hits": float(hits),
        "peak_nodes": float(manager.table_stats()["peak_live_nodes"]),
        "bytes_shipped": 0.0,
        "bytes_returned": 0.0,
        "result_tuples": float(solution["path"].size()),
        "iterations": float(eng.iterations),
    }


def _run_warm_update(chain_depth: int, cycles: int = 8) -> Dict[str, float]:
    """Standing-query workload: one cold points-to solve, then a stream
    of single-fact retract/insert pairs against the live engine.  The
    headline measures (wall clock, kernel work) cover only the update
    stream; the cold solve's kernel work rides along as
    ``cold_kernel_work`` so the artifact shows the warm/cold ratio."""
    from repro.analyses import AnalysisUniverse, PointsTo

    facts = _pointsto_facts(chain_depth)
    au = AnalysisUniverse(facts)
    solver = PointsTo(au)
    solver.solve()
    eng = solver.fixpoint
    assert eng is not None
    manager = au.universe.manager
    stats = manager.stats
    cold_work = stats.nodes_created + stats.op_totals()[1]
    # Flap a real assignment edge: each retract forces delete/rederive
    # through the copy chain, each insert re-grows it.
    dst, src = facts.assigns[-1]
    t0 = time.perf_counter()
    for _ in range(max(1, cycles)):
        eng.retract("assign", [(dst, src)])
        eng.insert("assign", [(dst, src)])
    wall = time.perf_counter() - t0
    hits, misses = stats.op_totals()
    update_work = stats.nodes_created + misses - cold_work
    table = manager.table_stats()
    return {
        "wall_seconds": wall,
        "kernel_work": float(update_work),
        "nodes_created": float(stats.nodes_created),
        "cache_misses": float(misses),
        "cache_hits": float(hits),
        "peak_nodes": float(table["peak_live_nodes"]),
        "bytes_shipped": 0.0,
        "bytes_returned": 0.0,
        "result_tuples": float(eng["pt"].size()),
        "iterations": float(eng.iterations),
        "cold_kernel_work": float(cold_work),
        "updates": float(2 * max(1, cycles)),
        "update_speedup": float(cold_work)
        / max(1.0, update_work / (2.0 * max(1, cycles))),
    }


def _run_multiplicity(chain_depth: int) -> Dict[str, float]:
    """Quantitative workload: the whole-program points-to solve on the
    multi-terminal backend, then every per-attribute `count` aggregate
    over the result — the terminal-arithmetic path this backend exists
    for.  The aggregate sweep's wall clock rides along as
    ``aggregate_seconds`` so the artifact separates solve cost from
    counting cost."""
    from repro.analyses import AnalysisUniverse, PointsTo
    from repro.relations import ExecutionPolicy

    facts = _pointsto_facts(chain_depth)
    au = AnalysisUniverse(facts, backend="mtbdd")
    solver = PointsTo(au, policy=ExecutionPolicy(engine="seminaive"))
    t0 = time.perf_counter()
    pt = solver.solve()
    solve_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    groups = 0
    for group_by in ([], ["var"], ["obj"]):
        groups += pt.aggregate("count", group_by=group_by).size()
    agg_wall = time.perf_counter() - t0
    manager = au.universe.manager
    stats = manager.stats
    hits, misses = stats.op_totals()
    table = manager.table_stats()
    return {
        "wall_seconds": solve_wall + agg_wall,
        "aggregate_seconds": agg_wall,
        "kernel_work": float(stats.nodes_created + misses),
        "nodes_created": float(stats.nodes_created),
        "cache_misses": float(misses),
        "cache_hits": float(hits),
        "peak_nodes": float(table["peak_live_nodes"]),
        "bytes_shipped": 0.0,
        "bytes_returned": 0.0,
        "result_tuples": float(pt.count()),
        "aggregate_groups": float(groups),
        "iterations": float(solver.fixpoint.iterations
                            if solver.fixpoint else 0),
    }


#: name -> factory(chain_depth) returning the measure dict.
WORKLOADS: Dict[str, Callable[[int], Dict[str, float]]] = {
    "closure": lambda depth: _run_closure(),
    "pointsto-seminaive": lambda depth: _run_pointsto(depth),
    "pointsto-parallel2": lambda depth: _run_pointsto(
        depth, engine="parallel", workers=2
    ),
    "pointsto-arena": lambda depth: _run_pointsto(depth, kernel="arena"),
    "pointsto-warm-update": lambda depth: _run_warm_update(depth),
    "pointsto-multiplicity": _run_multiplicity,
    "pointsto-xl": _run_pointsto_xl,
}

#: Workloads excluded from the default ``run_workloads()`` sweep; they
#: only run when named explicitly (``--workloads pointsto-xl``).  The
#: capped out-of-core solve takes ~25s on its own, which would dominate
#: every baseline job that just wants the routine suite.
OPT_IN_WORKLOADS = frozenset({"pointsto-xl"})


# ----------------------------------------------------------------------
# Artifact
# ----------------------------------------------------------------------


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except Exception:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_meta() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
    }


def run_workloads(
    names: Optional[Sequence[str]] = None,
    chain_depth: int = 80,
    repeats: int = 1,
    verbose: bool = True,
) -> Dict[str, Dict[str, float]]:
    """Run the named workloads (all by default); wall clock is best-of
    ``repeats``, the counters come from the fastest run."""
    selected = (
        list(names)
        if names
        else [n for n in WORKLOADS if n not in OPT_IN_WORKLOADS]
    )
    results: Dict[str, Dict[str, float]] = {}
    for name in selected:
        factory = WORKLOADS.get(name)
        if factory is None:
            raise SystemExit(
                f"bench: unknown workload {name!r} "
                f"(have: {', '.join(sorted(WORKLOADS))})"
            )
        best: Optional[Dict[str, float]] = None
        for _ in range(max(1, repeats)):
            run = factory(chain_depth)
            if best is None or run["wall_seconds"] < best["wall_seconds"]:
                best = run
        assert best is not None
        results[name] = best
        if verbose:
            print(
                f"bench: {name:20s} {best['wall_seconds']:8.3f}s  "
                f"kernel_work {int(best['kernel_work']):>10,}  "
                f"peak_nodes {int(best['peak_nodes']):>8,}  "
                f"shipped {int(best['bytes_shipped']):>9,}B",
                file=sys.stderr,
            )
    return results


def write_artifact(
    path: str,
    results: Dict[str, Dict[str, float]],
    chain_depth: int = 80,
    repeats: int = 1,
) -> Dict[str, object]:
    doc = {
        "schema": SCHEMA,
        "created": time.time(),
        "meta": machine_meta(),
        "config": {"chain_depth": chain_depth, "repeats": repeats},
        "workloads": results,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------


def diff(
    base: Dict[str, object],
    new: Dict[str, object],
    threshold: float = 0.25,
) -> Tuple[List[str], List[str]]:
    """Compare two artifacts; returns ``(regressions, notes)``.

    A measure regresses when ``new > base * (1 + threshold)`` and the
    base is large enough to be meaningful (``_MIN_BASE``).  Notes cover
    everything else worth a human glance: improvements beyond the same
    threshold, workloads present on only one side, and metadata drift
    (different machine/python) that makes wall-clock comparison soft.
    """
    regressions: List[str] = []
    notes: List[str] = []
    base_meta = base.get("meta") or {}
    new_meta = new.get("meta") or {}
    for key in ("platform", "python", "cpu_count"):
        if base_meta.get(key) != new_meta.get(key):
            notes.append(
                f"meta: {key} differs ({base_meta.get(key)!r} -> "
                f"{new_meta.get(key)!r}); wall-clock deltas are soft"
            )
    base_w: Dict[str, Dict[str, float]] = base.get("workloads") or {}
    new_w: Dict[str, Dict[str, float]] = new.get("workloads") or {}
    for name in sorted(set(base_w) | set(new_w)):
        if name not in new_w:
            notes.append(f"{name}: missing from new artifact")
            continue
        if name not in base_w:
            notes.append(f"{name}: new workload (no baseline)")
            continue
        for measure in MEASURES:
            b = float(base_w[name].get(measure, 0.0))
            n = float(new_w[name].get(measure, 0.0))
            if b < _MIN_BASE.get(measure, 0.0):
                continue
            ratio = n / b if b else float("inf")
            line = (
                f"{name}: {measure} {b:,.3f} -> {n:,.3f} "
                f"({(ratio - 1.0) * 100:+.1f}%)"
            )
            if ratio > 1.0 + threshold:
                regressions.append(line)
            elif ratio < 1.0 - threshold:
                notes.append(line + "  [improved]")
    return regressions, notes


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--out", metavar="FILE",
                        help="run workloads and write the artifact here")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two artifacts instead of running")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression threshold for --diff "
                        "(default 0.25 = 25%%)")
    parser.add_argument("--workloads",
                        help="comma-separated subset to run "
                        f"(have: {', '.join(sorted(WORKLOADS))}; default "
                        "runs all except the opt-in heavyweights: "
                        f"{', '.join(sorted(OPT_IN_WORKLOADS))})")
    parser.add_argument("--chain-depth", type=int, default=80,
                        help="copy-chain depth of the points-to workloads "
                        "(default 80)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload; wall clock is best-of")
    args = parser.parse_args(argv)

    if args.diff:
        docs = []
        for path in args.diff:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    docs.append(json.load(fh))
            except (OSError, ValueError) as err:
                print(f"bench: cannot read {path}: {err}", file=sys.stderr)
                return 2
        regressions, notes = diff(docs[0], docs[1], args.threshold)
        for note in notes:
            print(f"bench: note: {note}")
        for line in regressions:
            print(f"bench: REGRESSION: {line}")
        if regressions:
            print(
                f"bench: {len(regressions)} regression(s) beyond "
                f"{args.threshold * 100:.0f}%"
            )
            return 1
        print("bench: no regressions")
        return 0

    if not args.out:
        parser.error("one of --out or --diff is required")
    names = (
        [w.strip() for w in args.workloads.split(",") if w.strip()]
        if args.workloads else None
    )
    results = run_workloads(
        names, chain_depth=args.chain_depth, repeats=args.repeats
    )
    write_artifact(
        args.out, results, chain_depth=args.chain_depth, repeats=args.repeats
    )
    print(f"bench: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
