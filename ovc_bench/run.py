"""OVC pipeline benchmark: one workload, one seed, one run.

    python3 ovc_bench/run.py --workload intersect --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The run starts its own local Spark
session, makes the inputs from ``--seed``, loads them, runs untimed
warm-up queries and loads them ``WARM_LOADS`` more times to warm the
ingest path, then runs a closed loop with one client for ``--seconds``:
each iteration times a few ingests (the ingest samples) and then one
query.
Every timed operation is checked against DuckDB and against a
brute-force re-encoding of its ``_ovc`` codes, outside the timed
region. ``--trace 1`` instead times the calls into each layer and
writes the spans to ``.ovc_bench_work/traces/``.

Human-readable ``name value unit`` lines come first; the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback
from statistics import median

import benchenv

WARM_LOADS = 4
MIN_QUERIES = 3

END_TO_END = [
    ("query_s.p50", "s"),
    ("rows_per_s", "rows/s"),
    ("ingest_s.p50", "s"),
    ("space_amp", "ratio"),
    ("worker_rss_peak_mb", "MB"),
    ("setup_s", "s"),
]

_MJ = "core.operators.merge_join"
_PLAN = "sparkops.plans.sort_intersect_plan"
PER_LAYER = [
    ("spark.exchange_sort.s", "s"),
    ("spark.arrow_transfer.s", "s"),
    ("sparkops.ovc_column.attach_ovc.s", "s"),
    ("sparkops.aggregate.instream_aggregate.s", "s"),
    ("sparkops.aggregate.instream_distinct.s", "s"),
    ("sparkops.joins.merge_join_ovc.s", "s"),
    ("spark.jobs", "count"),
    ("spark.stages", "count"),
    ("spark.tasks", "count"),
    ("spark.tasks_failed", "count"),
    ("core.ovc.encode_sorted_array.s", "s"),
    ("core.ovc.boundary_mask.s", "s"),
    (f"{_MJ}.s", "s"),
    (f"{_MJ}.row_cmps", "count"),
    (f"{_MJ}.code_decided", "count"),
    (f"{_MJ}.col_cmps", "count"),
    (f"{_MJ}.code_decided_ratio", "ratio"),
    ("storage.columnar.write.s", "s"),
    ("storage.columnar.scan_with_ovc.s", "s"),
    ("storage.datasource.scan.s", "s"),
    ("storage.bytes_written", "bytes"),
    ("core.external_sort.s", "s"),
    (f"{_MJ}.intersect_distinct.s", "s"),
    (f"{_PLAN}.rows_spilled", "count"),
    (f"{_PLAN}.row_cmps", "count"),
    (f"{_PLAN}.code_decided", "count"),
    (f"{_PLAN}.col_cmps", "count"),
    ("spark_native.query_s", "s"),
    ("spark_native.ratio", "ratio"),
    ("hashexec.hash_intersect_plan.s", "s"),
    ("hashexec.rows_spilled", "count"),
    ("hashexec.hash_ops", "count"),
    ("trace.overhead_s", "s"),
]


class Tally:
    """Counts gated operations; an operation fails when it raises or
    when its correctness check reports an error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, fn, check):
        """Run ``fn`` timed, then ``check`` on its result untimed.
        Returns (result, seconds or None if it raised)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        secs = time.perf_counter() - t0
        self.record(fn.__name__, check(res))
        return res, secs

    def record(self, what: str, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            for e in errors[:5]:
                print(f"GATE FAILED {what}: {e}", file=sys.stderr)

    def extra(self, what: str, errors: list[str]) -> None:
        """A gated check that is not itself a timed operation."""
        self.attempted += 1
        self.record(what, errors)


def setup(wl, tally: Tally) -> float:
    """Load the inputs once (cold) and run ``wl.warmups`` untimed warm-up
    queries, then generate and ingest ``WARM_LOADS`` more times (the
    first warm ingests are still slower than the later ones).
    Returns the setup seconds: cold load, warm-ups and the median warm
    load."""
    cold = sum(load(wl, tally) or ())
    warm = sum(tally.op(wl.query, wl.check)[1] or 0.0
               for _ in range(wl.warmups))
    loads = [x for x in (load(wl, tally) for _ in range(WARM_LOADS)) if x]
    return cold + warm + (median(sum(x) for x in loads) if loads else 0.0)


def load(wl, tally: Tally) -> tuple[float, float] | None:
    """(generate seconds, ingest seconds), or None if ingest raised."""
    t0 = time.perf_counter()
    wl.generate()
    gen = time.perf_counter() - t0
    _, ing = tally.op(wl.ingest, wl.check_ingest)
    if ing is None:
        return None
    wl.prepare()
    return gen, ing


def closed_loop(wl, tally: Tally, sampler, seconds: float, min_queries: int,
                ingests: list[float] | None) -> tuple[list[float], list[float]]:
    """One client, one operation at a time, for ``seconds`` and at least
    ``min_queries`` queries; each query comes after
    ``wl.ingests_per_query`` timed ingests, whose seconds are appended
    to ``ingests`` (none when it is None). Spreading the ingest samples
    over the whole loop keeps their median steady. Returns (query
    seconds, RSS peaks MB) of the queries that did not raise."""
    times, peaks = [], []
    t_end = time.perf_counter() + seconds
    n = 0
    while n < min_queries or time.perf_counter() < t_end:
        n += 1
        for _ in range(wl.ingests_per_query if ingests is not None else 0):
            _, ing = tally.op(wl.write_op, wl.check_write)
            if ing is not None:
                ingests.append(ing)
        sampler.reset()
        _, secs = tally.op(wl.query, wl.check)
        peak = sampler.peak_mb()
        if secs is not None:
            times.append(secs)
            peaks.append(peak)
    return times, peaks


def run_traced(wl, tally: Tally, p50: float, trace_path: str) -> dict:
    """The traced pass: the whole query under a span, then the calls into
    each layer, then the native twin. Writes the spans to ``trace_path``."""
    from tracer import Tracer
    from workloads import NATIVE_REPEATS

    tr = Tracer(f"{wl.name}-seed{wl.seed}")
    metrics: dict = {}
    try:
        with tr.span("traced_run", workload=wl.name, seed=wl.seed):
            res, total, metrics = wl.traced_query(tr)
            tally.extra("traced query", wl.check(res))
            metrics["trace.overhead_s"] = total - p50
            layers, errors = wl.trace_layers(tr)
            metrics.update(layers)
            tally.extra("layer calls", errors)
            natives = []
            for _ in range(NATIVE_REPEATS):
                with tr.span("spark_native") as s:
                    got = wl.native_query()
                tally.extra("native twin", wl.check_native(got))
                natives.append(s.duration)
            metrics["spark_native.query_s"] = median(natives)
            metrics["spark_native.ratio"] = p50 / median(natives)
    except Exception:
        traceback.print_exc()
        tally.extra("traced run", ["raised"])
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tr.write(trace_path)
    print(f"trace written to {trace_path}")
    return metrics


def emit(table, values: dict) -> dict:
    out = {}
    for name, unit in table:
        v = float(values.get(name, 0.0))
        print(f"{name} {v:.6g} {unit}")
        out[name] = {"value": v, "unit": unit}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full") -> dict:
    """One benchmark run; prints metric lines and returns the result."""
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[workload]
    work = benchenv.WorkDir(workload)
    spark = sampler = None
    try:
        t0 = time.perf_counter()
        spark = benchenv.start_spark(work)
        from repro.storage.datasource import OvcDataSource

        spark.dataSource.register(OvcDataSource)
        session_s = time.perf_counter() - t0
        wl = cls(seed, SIZES[scale][workload], spark, work)
        tally = Tally()
        setup_s = setup(wl, tally)
        print(f"setup: session {session_s:.3f} s, loads and warm-ups "
              f"{setup_s:.3f} s")
        setup_s += session_s
        if hasattr(wl, "check_partitions"):
            tally.extra("partition codes", wl.check_partitions())
        sampler = benchenv.RssSampler()
        if trace:
            times, _ = closed_loop(wl, tally, sampler, 0, MIN_QUERIES, None)
            p50 = median(times) if times else float("nan")
            path = str(benchenv.WORK_ROOT / "traces" /
                       f"{workload}-seed{seed}.json")
            metrics = emit(PER_LAYER, run_traced(wl, tally, p50, path))
        else:
            ingests: list[float] = []
            times, peaks = closed_loop(wl, tally, sampler, seconds,
                                       MIN_QUERIES, ingests)
            p50 = median(times) if times else float("nan")
            print(f"query_s samples ({len(times)}): "
                  + " ".join(f"{t:.3f}" for t in times))
            print(f"ingest_s samples ({len(ingests)}): "
                  + " ".join(f"{t:.3f}" for t in ingests))
            metrics = emit(END_TO_END, {
                "query_s.p50": p50,
                "rows_per_s": wl.rows / p50,
                "ingest_s.p50": median(ingests) if ingests else float("nan"),
                "space_amp": wl.space_amp(),
                "worker_rss_peak_mb": median(peaks) if peaks else 0.0,
                "setup_s": setup_s,
            })
        print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
              f"ratio ({tally.failed} of {tally.attempted})")
        return {"correct": tally.failed == 0, "attempted": tally.attempted,
                "failed": tally.failed, "metrics": metrics}
    finally:
        try:
            if sampler:
                sampler.close()
            if spark:
                benchenv.stop_spark(spark)
        finally:
            work.close()


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    benchenv.check_checkout()
    sys.path.insert(0, str(benchenv.SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
