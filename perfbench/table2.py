"""``table2-cold``: the paper's Table 2 experiment.

Each round solves the five presets in a fixed order, each once by the
hand-coded ``LowLevelPointsTo`` (kernel only, no ``repro.relations``)
and once by ``PointsTo`` under the default ``ExecutionPolicy``.  Both
results are compared with ``naive_points_to``.

The traced run also compiles the five-analysis Jedd program
(``combined_source`` sized to the jedit facts) once, so the front end
and the SAT-based domain assignment have per-layer figures; the
assignment is checked with ``validate_assignment``.
"""

from __future__ import annotations

from typing import Dict, List

from harness import (
    TABLE2_PRESETS,
    ColdWorkload,
    geomean,
    kernel_work,
    median,
    preset_facts,
    run_item,
)


def _lowlevel(facts):
    from repro.analyses import LowLevelPointsTo

    solver = LowLevelPointsTo(facts)
    solver.solve()
    return solver


def _compile_combined(facts):
    """jeddc on all five analyses, sized to ``facts``."""
    from repro.analyses.jedd_sources import combined_source
    from repro.jedd import codegen
    from repro.jedd.compiler import compile_source

    c = facts.counts()
    bits = dict(
        type_bits=max(2, c["classes"].bit_length()),
        sig_bits=max(2, c["signatures"].bit_length()),
        method_bits=max(2, len(facts.methods).bit_length()),
        var_bits=max(2, c["variables"].bit_length()),
        obj_bits=max(2, c["alloc_sites"].bit_length()),
        field_bits=max(2, c["fields"].bit_length()),
        site_bits=max(2, c["virtual_calls"].bit_length()),
    )
    compiled = compile_source(combined_source(**bits))
    codegen.generate(compiled.tp, compiled.assignment)
    return compiled


def _jedd(facts):
    from repro.analyses import AnalysisUniverse, PointsTo

    solver = PointsTo(AnalysisUniverse(facts))
    solver.solve()
    return solver


class Table2Cold(ColdWorkload):
    PRIMARY = tuple(f"jedd:{p}" for p in TABLE2_PRESETS)
    SECONDARY = tuple(f"lowlevel:{p}" for p in TABLE2_PRESETS)

    def setup(self, seed: int):
        return {name: preset_facts(name, seed) for name in TABLE2_PRESETS}

    def oracle(self, state):
        from repro.analyses import naive_points_to

        return {name: naive_points_to(facts) for name, facts in state.items()}

    def round(self, state, oracle, tally, counters) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        ratios = []
        for name, facts in state.items():
            pt, hpt = oracle[name]
            low = run_item(out, tally, f"lowlevel:{name}", _lowlevel, facts)
            high = run_item(out, tally, f"jedd:{name}", _jedd, facts)
            if counters is not None and low and high:
                manager = high.au.universe.manager
                counters.add(low.m)
                counters.add(manager)
                counters.bump("lowlevel.kernel_work", kernel_work(low.m))
                counters.bump("fixpoint.rounds", high.iterations)
                ratios.append(kernel_work(manager) / kernel_work(low.m))
            if low:
                tally.check(low.pt_tuples() == pt, f"lowlevel pt {name}")
            if high:
                tally.check(set(high.pt.tuples()) == pt, f"jedd pt {name}")
                tally.check(set(high.hpt.tuples()) == hpt, f"jedd hpt {name}")
        if counters is not None and len(ratios) == len(state):
            counters.values["relations.kernel_work_ratio"] = geomean(ratios)
        return out

    def trace_extra(self, state, tally, counters) -> None:
        from repro.jedd.assignment import validate_assignment

        out: Dict[str, List[float]] = {}
        compiled = run_item(
            out, tally, "compile", _compile_combined, state["jedit"]
        )
        if compiled is None:
            return
        problems = validate_assignment(
            compiled.graph, compiled.assignment.node_domains
        )
        tally.check(not problems, "combined program domain assignment")
        stats = compiled.stats
        for key, name in (
            ("jedd.relation_exprs", "relation_exprs"),
            ("jedd.attributes", "attributes"),
            ("sat.vars", "sat_vars"),
            ("sat.clauses", "sat_clauses"),
            ("sat.conflicts", "conflicts"),
            ("sat.decisions", "decisions"),
        ):
            counters.values[key] = stats[name]

    def extra_metrics(self, items):
        ratios = [
            median(items[f"jedd:{p}"]) / median(items[f"lowlevel:{p}"])
            for p in TABLE2_PRESETS
        ]
        return {"relations.overhead_ratio": geomean(ratios)}
