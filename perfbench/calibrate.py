"""Times in reference seconds: measured time corrected by the host's
momentary speed.

The benchmark's hosts share their cores with other machines.  Their
speed flips between a fast and a slow state (about 1.8x apart) in
phases from about a second to minutes, so a solve timed in a slow
phase reads slow though the code did not change, and one solve of a
few seconds straddles several phases.

``probe()`` is a small fixed job: a pure-Python BDD (a hash-consed
unique table and a memoised ``apply`` over dicts and tuples, the same
mix of interpreter work as the kernel under test) that lives here and
never changes with the package.  While an item runs, a ``SIGALRM``
timer runs the probe every ``INTERVAL`` seconds in the same thread;
``BRACKET`` probes also run just before and just after the item.  If probe ``i``
took ``p_i`` seconds, the host's speed at that moment is proportional
to ``1/p_i``, and the item's work, at the reference speed, is::

    reference_seconds = (elapsed - probe time inside) * PROBE_S * mean(1/p_i)

A phase that slows the host slows the probes in the same proportion
and cancels; a change to the package moves only the measured side.
``PROBE_S`` is about the probe's median time on the 2-vCPU x86-64 VM
the benchmark was written on, so the figures read as seconds there.
The probes take about 4% of an item's time, which is subtracted.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter
from typing import Callable, List

#: About ``probe()``'s median seconds on the 2-vCPU x86-64 VM the
#: benchmark was written on.  A constant: it only sets the scale.
PROBE_S = 0.003
#: Seconds between two probes while an item runs; 0 probes only
#: around it.
INTERVAL = 0.05
#: Probes just before and just after a call: a short call holds few
#: timed probes, and one probe's time is noisy.
BRACKET = 3
#: Variables and clauses of the probe's formula.
_VARS = 22
_CLAUSES = 55


def _clauses():
    """A fixed 3-CNF formula (a linear congruential generator, so the
    probe never depends on ``random``'s implementation)."""
    state = 12345
    out = []
    for _ in range(_CLAUSES):
        lits = []
        for _ in range(3):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            var = state % _VARS
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            lits.append((var, state & 1))
        out.append(lits)
    return out


_FORMULA = _clauses()


def _mk(nodes, unique, var, lo, hi):
    if lo == hi:
        return lo
    key = (var, lo, hi)
    node = unique.get(key)
    if node is None:
        node = len(nodes)
        nodes.append(key)
        unique[key] = node
    return node


def _apply(nodes, unique, memo, op, a, b):
    if a <= 1 and b <= 1:
        return (a & b) if op == 0 else (a | b)
    key = (op, a, b) if a < b else (op, b, a)
    hit = memo.get(key)
    if hit is not None:
        return hit
    va, la, ha = nodes[a]
    vb, lb, hb = nodes[b]
    var = va if va < vb else vb
    a0, a1 = (la, ha) if va == var else (a, a)
    b0, b1 = (lb, hb) if vb == var else (b, b)
    result = _mk(
        nodes, unique, var,
        _apply(nodes, unique, memo, op, a0, b0),
        _apply(nodes, unique, memo, op, a1, b1),
    )
    memo[key] = result
    return result


def probe() -> int:
    """Conjoin the formula's clauses as BDDs; returns the node count (a
    constant, checked by the benchmark's tests).  Builds no cycles, so
    a probe inside an item leaves no work for the cyclic collector."""
    nodes: List[tuple] = [(_VARS, 0, 0), (_VARS, 1, 1)]  # terminals
    unique: dict = {}
    memo: dict = {}
    f = 1
    for clause in _FORMULA:
        c = 0
        for var, positive in clause:
            lit = _mk(nodes, unique, var, *((0, 1) if positive else (1, 0)))
            c = _apply(nodes, unique, memo, 1, c, lit)
        f = _apply(nodes, unique, memo, 0, f, c)
    return len(nodes)


def probe_seconds() -> float:
    start = perf_counter()
    probe()
    return perf_counter() - start


def scale(seconds: float, probes: List[float]) -> float:
    """``seconds`` of work done while the probes took ``probes``
    seconds each, in reference seconds."""
    return seconds * PROBE_S * sum(1.0 / p for p in probes) / len(probes)


def timed(fn: Callable, *args):
    """``(reference seconds, result)`` of one call, after a full
    collection, probing the host's speed before, during (unless
    ``INTERVAL`` is 0) and after."""
    gc.collect()
    probes = [probe_seconds() for _ in range(BRACKET)]
    if not INTERVAL:
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        probes.extend(probe_seconds() for _ in range(BRACKET))
        return scale(elapsed, probes), result

    def on_alarm(signum, frame):
        probes.append(probe_seconds())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    start = perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    inside = sum(probes[BRACKET:])
    probes.extend(probe_seconds() for _ in range(BRACKET))
    return scale(elapsed - inside, probes), result
