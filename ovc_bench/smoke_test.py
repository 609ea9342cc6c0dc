"""Smoke test of the benchmark itself, on tiny inputs.

    python3 ovc_bench/smoke_test.py

Runs every workload at the ``smoke`` size with tracing off and on, and
checks that each run is correct and prints every metric named in
``BENCHMARK.json`` with its unit, both as a ``name value unit`` line
and in the final JSON object. Then it corrupts query results on
purpose and checks that the correctness gate fails the run.
Exits non-zero on the first failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import benchenv

SECONDS = 0.1


class SmokeFailure(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SmokeFailure(what)


def smoke_run(workload: str, trace: bool) -> tuple[dict, str]:
    import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run(workload, 7, SECONDS, trace, scale="smoke")
    return result, buf.getvalue()


def check_metrics(workload: str, trace: bool, spec: dict) -> None:
    result, text = smoke_run(workload, trace)
    table = spec["per_layer" if trace else "end_to_end"]
    what = f"{workload} trace={int(trace)}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0,
           f"{what}: gate failed on an uncorrupted run")
    expect(result["attempted"] >= 1, f"{what}: nothing attempted")
    expect(set(result["metrics"]) == {m["name"] for m in table},
           f"{what}: metric names differ from BENCHMARK.json")
    lines = {tuple(ln.split()[::2]) for ln in text.splitlines()
             if len(ln.split()) == 3}
    for m in table:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{what}: unit of {m['name']}")
        expect((m["name"], m["unit"]) in lines,
               f"{what}: no '{m['name']} <value> {m['unit']}' line")
        if not trace:
            expect(got["value"] > 0, f"{what}: {m['name']} is not positive")
    print(f"ok  {what}")


def check_corruption() -> None:
    """A corrupted result must trip the gate and count as failed."""
    from workloads import WORKLOADS

    def corrupt_codes(pdf):
        pdf.loc[pdf.index[-1], "_ovc"] += 1
        return pdf

    def drop_row(pdf):
        return pdf.iloc[1:]

    def bump_code_sum(row):
        return {**row, "s": row["s"] + 1}

    cases = [("intersect", corrupt_codes), ("intersect", drop_row),
             ("lsm", bump_code_sum)]
    for workload, damage in cases:
        cls = WORKLOADS[workload]
        query = cls.query
        cls.query = lambda self, q=query, d=damage: d(q(self))
        try:
            result, _ = smoke_run(workload, False)
        finally:
            cls.query = query
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: corrupted result passed the gate")
        print(f"ok  {workload} corrupted by {damage.__name__}: "
              f"{result['failed']} of {result['attempted']} failed")


def main() -> int:
    benchenv.check_checkout()
    sys.path.insert(0, str(benchenv.SRC))
    with open(benchenv.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    try:
        for w in spec["workloads"]:
            for trace in (False, True):
                check_metrics(w["name"], trace, spec)
        check_corruption()
    except SmokeFailure as e:
        print(f"FAIL {e}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
