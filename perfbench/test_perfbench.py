"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

Run from the checkout root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import harness  # noqa: E402

harness.import_repro()

import standing  # noqa: E402
import tracing  # noqa: E402
from table2 import Table2Cold  # noqa: E402


def test_seeded_facts_repeat_and_differ():
    a = harness.preset_facts("javac-s", 1)
    b = harness.preset_facts("javac-s", 1)
    c = harness.preset_facts("javac-s", 2)
    assert a.assigns == b.assigns and a.loads == b.loads
    assert a.assigns != c.assigns
    assert a.classes == c.classes  # the edit keeps the preset's sizes


def test_corrupted_solve_result_is_counted():
    workload = Table2Cold()
    state = {"javac-s": harness.preset_facts("javac-s", 1)}
    oracle = workload.oracle(state)
    tally = harness.Tally()
    workload.round(state, oracle, tally, None)
    assert tally.attempted == 3 and tally.failed == 0

    pt, hpt = oracle["javac-s"]
    corrupted = {"javac-s": (set(list(pt)[1:]), hpt)}
    tally = harness.Tally()
    workload.round(state, corrupted, tally, None)
    assert tally.failed == 2  # the hand-coded and the Jedd pt


class _FakeClient:
    """Answers like the service, with a chosen wrong or failed reply."""

    def __init__(self, stream, corrupt=None, fail=False):
        self.pt, self.hpt, self.join = stream.oracle()
        self.corrupt = corrupt
        self.fail = fail

    def request(self, op, **params):
        from repro.service import ServiceError

        if self.fail:
            raise ServiceError("injected failure")
        if op == "query.update":
            return {"stats": {}}
        if op == "eval":
            rows = [[f, v, o] for v, f, o in self.join]
        else:
            rows = self.pt if params["relation"] == "pt" else self.hpt
            rows = [list(r) for r in rows]
        if self.corrupt == params.get("relation", op):
            rows = rows[1:]
        return {"tuples": rows, "wire_cache": {}}


def _stream():
    return standing.Stream(harness.preset_facts("javac-s", 1), 1)


def test_service_oracle_counts_wrong_and_failed_replies():
    tally = harness.Tally()
    standing.verify(_FakeClient(_stream()), _stream(), tally)
    assert (tally.attempted, tally.failed) == (3, 0)

    for corrupt in ("pt", "hpt", "eval"):
        tally = harness.Tally()
        standing.verify(_FakeClient(_stream(), corrupt), _stream(), tally)
        assert tally.failed == 1, corrupt

    tally = harness.Tally()
    standing.verify(_FakeClient(_stream(), fail=True), _stream(), tally)
    assert tally.failed == 1


def test_stream_is_seeded_and_keeps_the_oracle_in_step():
    a, b = _stream(), _stream()
    ops_a = [a.next() for _ in range(200)]
    assert ops_a == [b.next() for _ in range(200)]
    writes = [reqs[0][1] for kind, reqs in ops_a if kind == "write"]
    assert all(reqs == standing.READ for kind, reqs in ops_a if kind == "read")
    assert any("insert" in p for p in writes)
    assert any("retract" in p for p in writes)
    assert a.current == b.current


def test_probe_is_fixed_and_scales_to_reference_seconds():
    assert calibrate.probe() == calibrate.probe() == 729
    ref = calibrate.PROBE_S
    # A host at half the reference speed: twice the seconds, same figure.
    assert calibrate.scale(2.0, [2 * ref, 2 * ref]) == pytest.approx(1.0)
    # Half the time at each speed: the mean speed is 3/4 of the reference.
    assert calibrate.scale(1.0, [ref, 2 * ref]) == pytest.approx(0.75)


def test_timed_probes_during_the_call_and_subtracts_the_probes(monkeypatch):
    calls = []

    def fake_probe():  # takes no time, reads as the reference speed
        calls.append(calibrate.perf_counter())
        return calibrate.PROBE_S

    monkeypatch.setattr(calibrate, "probe_seconds", fake_probe)
    length = 5 * calibrate.INTERVAL

    def busy():
        end = calibrate.perf_counter() + length
        while calibrate.perf_counter() < end:
            pass
        return "done"

    seconds, result = calibrate.timed(busy)
    assert result == "done"
    inside = len(calls) - 2 * calibrate.BRACKET
    assert inside >= 3  # the timer probed while the call ran
    assert seconds == pytest.approx(
        length - inside * calibrate.PROBE_S, abs=0.02
    )


def test_stream_latencies_are_scaled_per_block(monkeypatch):
    probes = iter([0.5, 1.0, 2.0])  # the probe's seconds at block ends
    monkeypatch.setattr(standing, "probe_seconds", lambda: next(probes))
    clock = iter(range(1000))
    monkeypatch.setattr(standing, "perf_counter", lambda: next(clock))
    stream = _stream()
    steps = standing.BLOCK_STEPS + 1  # two blocks: a full one, one step
    run = standing.drive(
        _FakeClient(stream), stream, harness.Tally(), steps, None
    )
    lat = sorted(run["lat"]["write"] + run["lat"]["read"])
    ref = calibrate.PROBE_S
    assert run["seconds"] == [1] * steps  # each step took one tick
    # Block 0: speeds 1/0.5 and 1/1.0; block 1: 1/1.0 and 1/2.0.
    assert lat == [pytest.approx(0.75 * ref)] + [
        pytest.approx(1.5 * ref)
    ] * standing.BLOCK_STEPS


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer("t")
    t.spans = [
        ["fixpoint", "solve", 0.0, 10.0, -1],
        ["relations", "join", 1.0, 5.0, 0],
        ["bdd", "BDDManager.and_exist", 2.0, 4.0, 1],
        ["relations", "union", 6.0, 7.0, 0],
    ]
    own = t.self_times()
    assert own["fixpoint"] == pytest.approx(5.0)
    assert own["relations"] == pytest.approx(3.0)
    assert own["bdd"] == own["bdd.and_exist"] == pytest.approx(2.0)
    assert t.counts()["relations"] == 2


def test_wrappers_record_outermost_calls_and_uninstall():
    from repro.bdd import BDDManager

    original = BDDManager.__dict__["apply_or"]
    tracer = tracing.install(tracing.Tracer("t"))
    try:
        m = BDDManager(4)
        a = m.apply_or(m.var(0), m.var(1))
        m.exist(a, [0])  # recurses through apply_or: still one span
    finally:
        tracer.uninstall()
    assert BDDManager.__dict__["apply_or"] is original
    names = [s[tracing.NAME] for s in tracer.spans if s[0] == "bdd"]
    assert names == ["BDDManager.apply_or", "BDDManager.exist"]


def test_replace_classifier():
    from repro.bdd import BDDManager

    m = BDDManager(4)
    f = m.apply_and(m.var(0), m.var(1))
    classify = tracing.classify_replace
    assert classify((m, f, {0: 2, 1: 3})) == tracing.MONOTONE  # keeps 0 < 1
    assert classify((m, f, {0: 3, 1: 2})) == tracing.PERMUTING  # swaps
    assert classify((m, f, {2: 2})) is None  # identity


def test_replace_share_counts_only_the_window():
    from repro.bdd import BDDManager

    tracer = tracing.install(tracing.Tracer("t"))
    try:
        m = BDDManager(4)
        f = m.apply_and(m.var(0), m.var(1))
        m.replace(f, {0: 3, 1: 2})
        mark = len(tracer.spans)
        m.replace(f, {0: 2, 1: 3})
        m.replace(f, {2: 2})
    finally:
        tracer.uninstall()
    assert tracer.replace_counts() == (2, 1)
    assert tracer.replace_counts(mark) == (1, 1)


def test_refuses_to_run_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
