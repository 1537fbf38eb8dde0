#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Checks that

* a short run of each trace mode prints, as its last line, a result
  whose metric names and units are exactly ``BENCHMARK.json``'s
  ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) list;
* the oracle accepts a true reply and rejects replies corrupted here,
  in the benchmark -- an id dropped, an id added, a wrong distance --
  including through the concurrent-write check.

Exits 0 when every check passes, 1 otherwise.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
from loadgen import Rec  # noqa: E402
from server import COUNTY, SCALE, child_env  # noqa: E402


def check_names(spec, trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "point_lookup",
         "--seed", "1", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if got != want:
        problems.append(f"trace {trace}: printed {got}, BENCHMARK.json has {want}")
    if not result["correct"] or result["failed"]:
        problems.append(f"trace {trace}: run failed: {result['attempted']} attempted, {result['failed']} failed")
    return problems


def check_oracle() -> list:
    from repro.data import generate_county

    segments = generate_county(COUNTY, scale=float(SCALE)).segments
    truth = oracle.Oracle(segments)
    window = {"op": "window", "x1": 4096, "y1": 4096, "x2": 4608, "y2": 4608}
    ids = sorted(truth.window(window))
    s0 = segments[ids[0]]
    point = {"op": "point", "x": s0.x1, "y": s0.y1}
    nearest = {"op": "nearest", "x": s0.x1 + 3.5, "y": s0.y1 + 1.5, "k": 2}
    near = [[sid, d] for d, sid in truth.nearest(nearest)[:2]]
    outside = next(i for i in range(len(segments)) if i not in set(ids))
    problems = []
    for req, good in ((window, ids), (point, sorted(truth.point(point))), (nearest, near)):
        if truth.verify(req, good, set()) is not None:
            problems.append(f"oracle rejected a true {req['op']} reply")
    corrupted = [
        (window, ids[1:]),
        (window, ids + [outside]),
        (point, []),
        (nearest, [near[0], [near[1][0], near[1][1] * 1.5 + 1]]),
        (nearest, near[:1]),
    ]
    for req, bad in corrupted:
        if truth.verify(req, bad, set()) is None:
            problems.append(f"oracle accepted a corrupted {req['op']} reply {bad}")

    # The same corruption through the timeline check, next to a write
    # that overlapped a different read: only that write's id is excused.
    def rec(req, result, sent, done):
        r = Rec(req, sent, keep=True)
        r.sent, r.done, r.ok = sent, done, True
        r.body = json.dumps({"ok": True, "result": result}).encode()
        return r

    delete = rec({"op": "delete", "seg_id": ids[0]}, True, 5.0, 6.0)
    reads = [rec(window, ids, 1.0, 2.0), rec(window, ids[1:], 7.0, 8.0), rec(window, ids[2:], 5.5, 5.8)]
    checked, found = oracle.check_reads(segments, [delete], reads)
    if checked != 3 or len(found) != 1 or "missing" not in found[0]:
        problems.append(f"timeline check: {checked} checked, problems {found}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_oracle() + check_names(spec, 0) + check_names(spec, 1)
    for problem in problems:
        print("FAIL:", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
