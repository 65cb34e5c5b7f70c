"""Run one workload of the repository benchmark and print its result.

Usage, from the checkout root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``table2-cold``, ``service-standing``, ``kernel-sweeps``
(see ``perfbench/README.md``).  The seed drives every
generated input.  With ``--trace 0`` the run measures with tracing off
and reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it runs one untraced and one traced pass of fixed size
and reports the per-layer metrics, including the tracing overhead
(traced minus untraced) of each end-to-end metric.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Exits non-zero, printing no
result, when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import harness  # noqa: E402
from harness import (  # noqa: E402
    SETUP_REPEATS,
    KernelCounters,
    Tally,
    median,
    peak_rss_mb,
    run_rounds,
    run_setups,
    summarize_items,
)

WORKLOADS = ("table2-cold", "service-standing", "kernel-sweeps")
#: End-to-end metrics whose tracing overhead the traced run reports.
E2E = ("setup_s", "peak_rss_mb", "primary_s", "secondary_s")
#: Stream steps in each pass of a traced service run.
TRACE_STEPS = 300


def cold_workload(name: str, scratch: str):
    if name == "table2-cold":
        from table2 import Table2Cold

        return Table2Cold()
    from sweeps import KernelSweeps

    return KernelSweeps(scratch)


def run_cold(args, tally: Tally, scratch: str) -> dict:
    workload = cold_workload(args.workload, scratch)
    if not args.trace:
        setups, state = run_setups(workload, args.seed, SETUP_REPEATS)
        oracle = workload.oracle(state)
        items = run_rounds(workload, state, oracle, tally, args.seconds)
        setups += run_setups(workload, args.seed, SETUP_REPEATS)[0]
        metrics = summarize_items(workload, items)
        metrics.update(setup_s=median(setups), peak_rss_mb=peak_rss_mb())
        return metrics

    import tracing

    counters = KernelCounters()
    setups, state = run_setups(workload, args.seed, SETUP_REPEATS)
    oracle = workload.oracle(state)
    items = run_rounds(
        workload, state, oracle, tally, None, rounds=1, counters=counters
    )
    untraced = summarize_items(workload, items)
    untraced.update(setup_s=median(setups), peak_rss_mb=peak_rss_mb())
    out = workload.extra_metrics(items)

    tracer = tracing.install(tracing.Tracer(args.run_id))
    try:
        setups, state = run_setups(workload, args.seed, SETUP_REPEATS)
        mark = len(tracer.spans)
        items = run_rounds(workload, state, oracle, tally, None, rounds=1)
        workload.trace_extra(state, tally, counters)
    finally:
        tracer.uninstall()
    traced = summarize_items(workload, items)
    traced.update(setup_s=median(setups), peak_rss_mb=peak_rss_mb())
    out.update(counters.metrics())
    out.update(layer_metrics(tracer, mark))
    out.update(overhead(traced, untraced))
    write_trace(tracer)
    return out


def run_service(args, tally: Tally, scratch: str) -> dict:
    import standing

    path = os.path.join(scratch, "facts.jddu")

    def one_pass(argv, steps, check_every=standing.CHECK_EVERY, after=0):
        """Set up, stream ``steps`` steps, then set up ``after`` more
        servers (timed into ``setup_s``, then stopped)."""
        setups, (facts, server, size) = standing.setups(
            args.seed, argv, path, SETUP_REPEATS
        )
        try:
            run = standing.drive(
                server.client, standing.Stream(facts, args.seed), tally,
                steps, check_every,
            )
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        if after:
            more, (_, server, _) = standing.setups(
                args.seed, argv, path, after
            )
            server.stop()
            setups += more
        summary = standing.summarize(run)
        summary.update(setup_s=median(setups), peak_rss_mb=rss)
        return run, summary, size

    plain = ["-m", "repro.service", "--port", "0"]
    if not args.trace:
        steps = round(args.seconds * standing.STEPS_PER_SECOND)
        return one_pass(plain, steps, after=SETUP_REPEATS)[1]

    import tracing

    fixed = dict(steps=TRACE_STEPS, check_every=None)
    run, untraced, size = one_pass(plain, **fixed)
    updates = run["updates"]
    wire = run["wire"]
    out = {
        "service.update_p90_s": untraced["service.update_p90_s"],
        "service.read_p90_s": untraced["service.read_p90_s"],
        "fixpoint.dred_deleted": sum(u["deleted"] for u in updates),
        "fixpoint.dred_rederived": sum(u["rederived"] for u in updates),
        "fixpoint.update_kernel_work": sum(u["kernel_work"] for u in updates),
        "service.wire_cache_hit_ratio": (
            wire["hits"] / (wire["hits"] + wire["misses"]) if wire else 0.0
        ),
        "io.jddu_bytes": size,
    }

    spans_path = os.path.join(scratch, "service-spans.json")
    boot = os.path.join("perfbench", "service_boot.py")
    client_tracer = tracing.install(tracing.Tracer(args.run_id))
    try:
        run, traced, _ = one_pass(
            [boot, "--trace-out", spans_path, "--port", "0"], **fixed
        )
    finally:
        client_tracer.uninstall()
    server_tracer = tracing.Tracer.read(spans_path)
    write_trace(client_tracer)
    write_trace(server_tracer)

    # The stream server saw two set-up requests (load, query.create),
    # then the stream's requests, then the final oracle check's reads.
    dispatch = [
        i for i, s in enumerate(server_tracer.spans) if s[0] == "service"
    ]
    lo, hi = dispatch[2], dispatch[2 + run["sent"]]
    out.update(layer_metrics(server_tracer, lo, hi))
    stream = server_tracer.spans[lo:hi]
    served = [s[3] - s[2] for s in stream if s[0] == "service"]
    out["service.dispatch_s"] = sum(served) / len(served)
    out["service.transport_s"] = (
        sum(run["seconds"]) - sum(served)
    ) / len(served)
    updates = [
        s[3] - s[2] for s in stream
        if s[0] == "fixpoint" and s[1].endswith(".update")
    ]
    out["fixpoint.update_s"] = median(updates)
    # One checkpoint written per set-up on the client side; the stream
    # server decoded the last one.
    out["io.jddu_encode_s"] = median(client_tracer.durations("io"))
    out["io.jddu_decode_s"] = sum(server_tracer.durations("io"))
    out.update(overhead(traced, untraced))
    return out


def layer_metrics(tracer, lo: int = 0, hi=None) -> dict:
    """Per-layer self seconds and span counts over spans ``lo..hi``."""
    own = tracer.self_times(lo, hi)
    count = tracer.counts(lo, hi)
    out = {f"{layer}_s": own.get(layer, 0.0) for layer in (
        "jedd.parse", "jedd.typecheck", "jedd.liveness",
        "jedd.constraints", "jedd.assign", "jedd.codegen",
        "bdd.apply", "bdd.and_exist", "bdd.exist", "bdd.replace",
        "bdd.gc", "bdd.other",
    )}
    out["sat.solve_s"] = own.get("sat", 0.0)
    out["relations.self_s"] = own.get("relations", 0.0)
    out["relations.ops"] = count.get("relations", 0)
    out["fixpoint.self_s"] = own.get("fixpoint", 0.0)
    out["ir.evaluate_s"] = own.get("ir", 0.0)
    out["ir.evaluations"] = count.get("ir", 0)
    out["bdd.ops"] = count.get("bdd", 0)
    out["bdd.replace_calls"] = sum(
        n for key, n in count.items()
        if key.startswith("bdd:") and key.endswith(".replace")
    )
    nonidentity, monotone = tracer.replace_counts(lo, hi)
    out["bdd.replace_monotone_share"] = (
        monotone / nonidentity if nonidentity else 0.0
    )
    out["trace.spans"] = len(tracer.spans[lo:hi])
    return out


def overhead(traced: dict, untraced: dict) -> dict:
    return {f"trace.overhead.{k}": traced[k] - untraced[k] for k in E2E}


def write_trace(tracer) -> None:
    path = os.path.join(harness.WORK, "traces")
    os.makedirs(path, exist_ok=True)
    tracer.write(os.path.join(path, f"{tracer.run_id}.json"))


def load_spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_repro()
    except harness.MissingSource as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.trace:
        # A probe inside a call would land in the span of whichever
        # layer it interrupts, so both passes of a traced run probe the
        # host's speed only around calls.
        calibrate.INTERVAL = 0
    args.run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    scratch = harness.work_dir(args.run_id)
    tally = Tally()
    started = perf_counter()
    runner = run_service if args.workload == "service-standing" else run_cold
    try:
        measured = runner(args, tally, scratch)
    except Exception as err:  # an unusable run is reported as failed
        tally.error("run", err)
        measured = {}
    finally:
        harness.remove_tree(scratch)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"], 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(
        f"perfbench: {args.workload} seed {args.seed} trace {args.trace} "
        f"took {perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
