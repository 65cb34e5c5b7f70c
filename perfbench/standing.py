"""``service-standing``: one closed-loop client against the service.

Set-up boots ``python -m repro.service`` in a subprocess, builds the
javac-shaped facts, checkpoints them with ``Universe.save`` (JDDU),
``load``s the checkpoint in the service and registers the points-to
rules as a standing query with ``query.create``.

The stream is a fixed number of seeded steps, each a write
(``query.update`` inserting or retracting one assign/store/load fact)
or a read.  A read is a
``query.get pt`` followed by an ``eval`` join through the planner,
timed together: the two alone have medians apart by ~1.5x, so a median
over a seeded mix of both would flip between them from run to run.
One client sends each request after the previous reply.  ``pt``/``hpt`` and the join are checked
against ``naive_points_to`` of the mutated fact set every
``CHECK_EVERY`` requests and at the end; any ``ok: false`` reply is a
failure.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

from calibrate import probe_seconds, scale, timed
from harness import (
    ROOT,
    SRC,
    Tally,
    median,
    percentile,
    preset_facts,
)

PRESET = "javac"
QUERY = "q"
#: The read that goes through the shell's planner/IR path.
JOIN = "q_pt{obj} <> q_hpt{baseobj}"
#: Stream steps between two oracle checks.
CHECK_EVERY = 50
#: The repository has no traffic data, so the stream's mix is stated
#: here as assumptions.  Which relation a write touches follows the
#: preset's own fact counts (javac: assign 615, store 69, load 66), so
#: edits fall where the program's statements are.
#:
#: Share of writes among the steps: half, so update and read latency get
#: the same number of samples per run.
WRITE_SHARE = 0.5
#: Odds that a write retracts a present fact rather than inserting one:
#: even odds keep the fact count steady over the stream, so the late
#: steps work on a program of the same size as the early ones.
RETRACT_ODDS = 0.5
#: Odds that an insert restores a fact retracted earlier rather than
#: adding a random one: an edited statement usually comes back, and a
#: restored fact has real derivations for DRed to rebuild, while a new
#: fact mostly derives little.
REINSERT_ODDS = 0.7
#: Stream steps per second of ``--seconds``.  The step count is fixed by
#: the arguments, not by the host's speed, so the server's state (and
#: its memory) at the end depends only on the seed and the code.  At
#: this rate a 38-s run's stream takes about 26 s on the host described
#: in README.md.
STEPS_PER_SECOND = 80
#: Stream steps between two speed probes (see ``calibrate``).  A step's
#: latency is scaled by the probes at the two ends of its block, taken
#: in the client between steps, so a step is never slowed by a probe.
#: Five steps take about 15 ms, far less than a phase of the host.
BLOCK_STEPS = 5
#: The requests of one read step.
READ = (
    ("query.get", {"universe": "u", "query": QUERY, "relation": "pt"}),
    ("eval", {"universe": "u", "expr": JOIN}),
)

RULES = [
    {"head": "pt", "vars": ["var", "obj"],
     "body": [["alloc", ["var", "obj"]]]},
    {"head": "pt", "vars": ["dstvar", "obj"],
     "body": [["assign", ["dstvar", "srcvar"]],
              ["pt", {"var": "srcvar", "obj": "obj"}]]},
    {"head": "hpt", "vars": ["baseobj", "field", "srcobj"],
     "body": [["store", ["basevar", "field", "srcvar"]],
              ["pt", {"var": "basevar", "obj": "baseobj"}],
              ["pt", {"var": "srcvar", "obj": "srcobj"}]]},
    {"head": "pt", "vars": ["dstvar", "srcobj"],
     "body": [["load", ["dstvar", "basevar", "field"]],
              ["pt", {"var": "basevar", "obj": "baseobj"}],
              ["hpt", ["baseobj", "field", "srcobj"]]]},
]

#: Fact relation -> the ProgramFacts list holding its rows.
FACT_LISTS = {"assign": "assigns", "store": "stores", "load": "loads"}


class Server:
    """The service subprocess and one blocking client connected to it."""

    def __init__(self, argv: List[str]) -> None:
        from repro.service import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self.proc.stdout.readline().strip()
        if not ready.startswith("SERVICE READY "):
            self.stop()
            raise RuntimeError(f"service did not start: {ready!r}")
        host, _, port = ready.split()[-1].rpartition(":")
        self.client = ServiceClient(host, int(port), timeout=60.0)

    def peak_rss_mb(self) -> float:
        """The server process's own peak resident set size (MiB)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.request("shutdown")
            except Exception:  # already gone: fall through to kill
                pass
            client.close()
            self.client = None
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def checkpoint(facts, path: str) -> int:
    """Build the fact universe and save it as a JDDU checkpoint."""
    from repro.analyses import AnalysisUniverse
    from repro.relations import Relation

    au = AnalysisUniverse(facts)
    u = au.universe
    rels = {
        "alloc": au.alloc(),
        "assign": au.assign(),
        "store": au.store(),
        "load": au.load(),
        "pt0": Relation.empty(u, ["var", "obj"], ["V1", "H1"]),
        "hpt0": Relation.empty(
            u, ["baseobj", "field", "srcobj"], ["H1", "F1", "H2"]
        ),
    }
    return u.save(path, rels)


def setup(seed: int, argv: List[str], path: str):
    """Boot, checkpoint, load, create the standing query."""
    facts = preset_facts(PRESET, seed)
    server = Server(argv)
    try:
        size = checkpoint(facts, path)
        client = server.client
        client.request("load", universe="u", path=path)
        client.request(
            "query.create", universe="u", query=QUERY,
            facts=["alloc", "assign", "store", "load"],
            relations={"pt": "pt0", "hpt": "hpt0"}, rules=RULES,
        )
    except BaseException:
        server.stop()
        raise
    return facts, server, size


class Stream:
    """The seeded request stream over a mutable copy of the facts."""

    def __init__(self, facts, seed: int) -> None:
        self.rng = random.Random(f"stream/{seed}")
        self.facts = facts
        self.current = {
            rel: sorted(set(getattr(facts, attr)))
            for rel, attr in FACT_LISTS.items()
        }
        self.retracted: Dict[str, List[tuple]] = {r: [] for r in FACT_LISTS}
        self.weights = [len(self.current[rel]) for rel in FACT_LISTS]
        self.method_of = {var: m for m, var in facts.method_vars}
        self.locals: Dict[str, List[str]] = {}
        for m, var in facts.method_vars:
            self.locals.setdefault(m, []).append(var)
        assigns = self.current["assign"]
        self.local_assign_share = sum(
            self.method_of[d] == self.method_of[s] for d, s in assigns
        ) / len(assigns)

    def _new_fact(self, rel: str) -> tuple:
        """A fact shaped like the program's own: a store or load names
        two variables of one method, as every one in the input does, and
        an assign does so at the input's own share of such assigns (the
        rest cross methods, as parameter and return flow does)."""
        rng, f = self.rng, self.facts
        first = rng.choice(f.variables)
        local = self.locals[self.method_of[first]]
        if rel == "assign":
            same = rng.random() < self.local_assign_share
            return (first, rng.choice(local if same else f.variables))
        if rel == "store":
            return (first, rng.choice(f.fields), rng.choice(local))
        return (first, rng.choice(local), rng.choice(f.fields))

    def next(self):
        """``(kind, requests)`` of the next step, each request an
        ``(op, params)`` pair; a write also updates the local fact set
        the oracle reads."""
        rng = self.rng
        if rng.random() >= WRITE_SHARE:
            return "read", READ
        rel = rng.choices(list(FACT_LISTS), self.weights)[0]
        rows = self.current[rel]
        if rows and rng.random() < RETRACT_ODDS:
            row = rows.pop(rng.randrange(len(rows)))
            self.retracted[rel].append(row)
            change = "retract"
        else:
            pool = self.retracted[rel]
            if pool and rng.random() < REINSERT_ODDS:
                row = pool.pop(rng.randrange(len(pool)))
            else:
                row = self._new_fact(rel)
            if row in rows:
                return self.next()
            rows.append(row)
            change = "insert"
        return "write", (("query.update", {
            "universe": "u", "query": QUERY, change: {rel: [list(row)]}}),)

    def oracle(self):
        """``naive_points_to`` of the mutated facts, plus the expected
        rows of the join read."""
        import copy

        from repro.analyses import naive_points_to

        facts = copy.copy(self.facts)
        for rel, attr in FACT_LISTS.items():
            setattr(facts, attr, list(self.current[rel]))
        pt, hpt = naive_points_to(facts)
        by_obj: Dict[str, List[tuple]] = {}
        for base, field, src in hpt:
            by_obj.setdefault(base, []).append((field, src))
        join = {
            (var, field, src)
            for var, obj in pt
            for field, src in by_obj.get(obj, ())
        }
        return pt, hpt, join


def _rows(result) -> set:
    return {tuple(row) for row in result["tuples"]}


def verify(client, stream: Stream, tally: Tally) -> None:
    """Untimed: compare pt, hpt and the join read with the oracle."""
    from repro.service import ServiceError

    pt, hpt, join = stream.oracle()
    try:
        got = client.request(
            "query.get", universe="u", query=QUERY, relation="pt")
        tally.check(_rows(got) == pt, "service pt")
        got = client.request(
            "query.get", universe="u", query=QUERY, relation="hpt")
        tally.check(_rows(got) == hpt, "service hpt")
        got = client.request("eval", universe="u", expr=JOIN)
        tally.check(
            {_canonical(row) for row in _rows(got)} == join,
            "service join read",
        )
    except ServiceError as err:
        tally.error("service oracle read", err)


def _canonical(row: tuple) -> tuple:
    """A join row as (var, field, srcobj), whatever the column order of
    the reply: the synthesized names start with ``v``, ``f`` and ``o``."""
    return tuple(sorted(row, key=lambda value: "vfo".index(value[0])))


def drive(
    client,
    stream: Stream,
    tally: Tally,
    steps: int,
    check_every: Optional[int] = CHECK_EVERY,
) -> Dict[str, list]:
    """Closed loop: send the next request when the last reply is in, for
    exactly ``steps`` steps; check the results every ``check_every``
    steps (None: only at the end; a multiple of ``BLOCK_STEPS``).  A
    step's latency counts only if all its requests succeeded.  ``lat``
    holds each kind's latencies in reference seconds, ``seconds`` every
    latency as measured."""
    from repro.service import ServiceError

    raw: Dict[str, list] = {"write": [], "read": []}
    updates: List[dict] = []
    wire = {}
    sent = 0
    probes = [probe_seconds()]
    for done in range(1, steps + 1):
        kind, requests = stream.next()
        t0 = perf_counter()
        ok = True
        for op, params in requests:
            sent += 1
            try:
                result = client.request(op, **params)
            except ServiceError as err:
                tally.error(f"{op} request", err)
                ok = False
                continue
            tally.check(True, op)
            if op == "query.update":
                updates.append(result["stats"])
            elif op == "query.get":
                wire = result["wire_cache"]
        if ok:
            raw[kind].append((len(probes) - 1, perf_counter() - t0))
        if done % BLOCK_STEPS == 0 or done == steps:
            probes.append(probe_seconds())
            if check_every and done % check_every == 0:
                verify(client, stream, tally)
    verify(client, stream, tally)
    lat = {
        kind: [scale(t, probes[block:block + 2]) for block, t in values]
        for kind, values in raw.items()
    }
    seconds = [t for values in raw.values() for _, t in values]
    return {
        "lat": lat, "seconds": seconds, "updates": updates, "wire": wire,
        "sent": sent,
    }


def summarize(run: Dict[str, list]) -> Dict[str, float]:
    writes, reads = run["lat"]["write"], run["lat"]["read"]
    return {
        "primary_s": median(writes),
        "secondary_s": median(reads),
        "service.update_p90_s": percentile(writes, 90),
        "service.read_p90_s": percentile(reads, 90),
    }


def setups(seed: int, argv: List[str], path: str, repeats: int):
    """Set up ``repeats`` servers, stopping all but the last.  Returns
    the seconds of each set-up and the last ``setup`` result."""
    times, last = [], None
    for _ in range(repeats):
        if last is not None:
            last[1].stop()
        seconds, last = timed(setup, seed, argv, path)
        times.append(seconds)
    return times, last
