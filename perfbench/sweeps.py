"""``kernel-sweeps``: ``PointsTo`` under the arena and out-of-core kernels.

Each round solves the jedit-shaped facts under ``kernel="arena"``, the
javac-s-shaped facts under ``kernel="ooc"`` with a 512 KiB
``memory_cap_bytes`` (spilling into the run's scratch directory), and
the sablecc-shaped facts under ``kernel="arena"``, and compares every
``pt`` result with ``naive_points_to``.  Each capped solve must also
have spilled and kept its peak resident bytes under the cap
(``ooc_profile()``), so a kernel that ignored the cap could not read as
a faster ooc solve.

The arena side is the sum of two presets because the seed's edit moves
jedit's fixpoint depth between 13 and 15 rounds, which moves its solve
time by about 8%; sablecc's depth stays at 10, so the step moves the
sum by about a third less.

The capped solve is javac-s at 512 KiB rather than javac at 4 MiB: both
spill (about 0.8 and 2 MB written) and stay under their cap, but the
smaller one takes about 3 s instead of 7, so a run holds twice the
samples of the noisiest item.
"""

from __future__ import annotations

import os
from typing import Dict, List

from harness import ColdWorkload, preset_facts, remove_tree, run_item

OOC_CAP_BYTES = 512 << 10
#: The solves of one round, as (kernel, preset).
ORDER = (("arena", "jedit"), ("ooc", "javac-s"), ("arena", "sablecc"))


def _solve(facts, kernel):
    from repro.analyses import AnalysisUniverse, PointsTo

    solver = PointsTo(AnalysisUniverse(facts, kernel=kernel))
    solver.solve()
    return solver


class KernelSweeps(ColdWorkload):
    PRIMARY = ("ooc:javac-s",)
    SECONDARY = ("arena:jedit", "arena:sablecc")

    def __init__(self, scratch: str) -> None:
        # The ooc kernel reads its cap and spill directory from the
        # environment when AnalysisUniverse builds the manager.
        self.spill_dir = os.path.join(scratch, "ooc-spill")
        os.environ["JEDD_OOC_CAP_BYTES"] = str(OOC_CAP_BYTES)
        os.environ["JEDD_OOC_SPILL_DIR"] = self.spill_dir

    def setup(self, seed: int):
        return {preset: preset_facts(preset, seed) for _, preset in ORDER}

    def oracle(self, state):
        from repro.analyses import naive_points_to

        return {k: naive_points_to(facts)[0] for k, facts in state.items()}

    def round(self, state, oracle, tally, counters) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for kernel, preset in ORDER:
            key = f"{kernel}:{preset}"
            solver = run_item(out, tally, key, _solve, state[preset], kernel)
            if solver is None:
                continue
            manager = solver.au.universe.manager
            if counters is not None:
                counters.add(manager)
                counters.bump("fixpoint.rounds", solver.iterations)
            tally.check(set(solver.pt.tuples()) == oracle[preset], f"{key} pt")
            if kernel == "ooc":
                profile = manager.ooc_profile()
                tally.check(profile["spill_bytes_written"] > 0, "ooc spilled")
                tally.check(
                    profile["peak_resident_bytes"] <= OOC_CAP_BYTES,
                    "ooc peak resident bytes within the cap",
                )
                manager.close()
                remove_tree(self.spill_dir)
        return out
