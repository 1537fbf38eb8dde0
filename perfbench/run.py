#!/usr/bin/env python3
"""The served benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload viewport --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. For the workload it names, the
benchmark

1. starts ``python -m repro serve --async`` several times (five times
   for the in-memory workloads, three for the durable one, whose spawns
   take three times as long), each building its index from ``--county
   charles --scale 0.25`` (12,749 segments, 1 KiB pages, a 16-page
   pool), and keeps the last; ``setup_s`` is the median time from spawn
   to the first OK ``ping``. The server is pinned to one CPU and this
   process to the other;
2. drives that server from this single-threaded process over two
   connections, after a warm-up of 2048 requests, in ten blocks. Each
   block is an open loop at the workload's fixed Poisson rate, then,
   for a workload with no writes of its own, a short insert/delete
   phase -- so every workload reports write latency -- then a closed
   loop (2 connections x 8 pipelined requests on wire v2, 2 x 1 on wire
   v1), which also re-warms what the writes emptied before the next
   block's open loop. A block in which the generator's lateness, not
   the server, sets the latency is replaced by an extra one;
3. checks sampled replies against a brute-force scan of the same map
   (``oracle.py``) and requires ``counters_consistent`` from ``stats``;
4. prints one line of workload properties, validity, the p95 and p99
   tails and per-block figures, then the result -- or, when fewer than
   ten blocks were punctual, the diagnostics on standard error and no
   result at all.

Open-loop latencies are percentiles over the ten punctual blocks'
samples; the write probe's are over all its writes. Only medians are
gated: on a small shared machine the p90, p95 and p99 tails of
reads and writes moved two to four times as much between runs as the
medians did, so they are printed with the workload properties instead.
Failed, refused, unanswered and wrong replies are the result's
``failed`` count out of ``attempted``.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` it carries the per-layer metrics: deltas of the server's
``stats`` and ``metrics`` ops around each phase, the generator's own
lateness, and an in-process replay of the open-loop stream with spans
around each layer's public calls (``traced.py``), which also gives the
tracing overhead against an untraced replay. Spans are written to
``perfbench/out/``.

Seeds 1-10 are the working seeds; seeds 1001-1010 are kept back to
confirm a claim on inputs that were not used while the change was made.

Exit status: 0 when every check passed, 1 when a reply was wrong or the
server's counters were inconsistent, 2 when the program's sources are
missing, the generator ran late in too many blocks, or the benchmark
could not run.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Spawns per run whose median is setup_s: an in-memory server is up in
# ~2.5 s and a durable one in ~7.5 s on a 2-vCPU virtual machine.
SETUP_REPS = {False: 5, True: 3}  # by Workload.durable
CONNECTIONS = 2
BLOCKS = 10
OPEN_SHARE = 0.6  # of each block; the closed loop gets CLOSED_SHARE
CLOSED_SHARE = 0.3  # the rest is the write phase of read-only workloads
OPEN_CHECKS = 100  # sampled open-loop reads checked against the oracle
CLOSED_CHECK_EVERY = 60
PAGE_BYTES = 1024  # the served index's page size (the paper's 1 KiB)
REPLAY_WRITES = 400  # write-phase requests the traced replay appends
EXTRA_BLOCKS = BLOCKS // 2
# The warm-up is counted in requests, not seconds, so the cache and
# index state the first block starts from does not depend on how fast
# the machine ran.
WARMUP_REQUESTS = 2048
# A block is late -- the generator's own send delay, not the server,
# sets the latency it reports -- when the median lateness of its sends
# exceeds this share of its median read latency. Punctual blocks show
# 0.04-0.05 ms against 0.6-0.9 ms, a share of 0.05-0.08, on a 2-vCPU
# virtual machine.
LATE_SHARE = 0.25

UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "throughput_qps": "1/s",
    "server_rss_mb": "MB",
    "disk_bytes_per_segment": "B",
    "aio.outside_engine_ms": "ms",
    "service.engine_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.invalidations_per_write": "count",
    "service.latch.contended_ratio": "ratio",
    "wal.fsyncs_per_write": "count",
    "wal.bytes_per_write": "B",
    "aio.overloaded": "count",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.replaced_blocks": "count",
    "loadgen.trace_overhead_pct": "%",
    "api.parse_us": "us",
    "service.execute_self_us": "us",
    "aio.frames_us": "us",
    "core.traverse_us.point": "us",
    "core.traverse_us.nearest": "us",
    "core.traverse_us.window": "us",
    "storage.disk_accesses_per_query": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.segment_comps_per_query": "count",
    "core.bbox_comps_per_query": "count",
    "wal.append_us": "us",
    "wal.commit_us": "us",
    "core.insert_us": "us",
    "data.generate_s": "s",
    "core.build_s": "s",
    "wal.create_s": "s",
}


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty sequence."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


def chosen_layer(wl, metrics, shares, write_p50_ms):
    """Does the layer the workload was chosen for do the most work?

    ``point_lookup`` was chosen for the front end, ``viewport`` for the
    engine and its traversal, ``mixed_durable`` for the WAL and index
    write path inside ``write_p50_ms``.
    """
    outside = metrics["aio.outside_engine_ms"]
    engine = metrics["service.engine_ms"]
    write_path_ms = (
        metrics["wal.append_us"] + metrics["wal.commit_us"] + metrics["core.insert_us"]
    ) / 1e3
    largest_replay_layer = max(shares, key=shares.get)
    if wl.name == "point_lookup":
        claim, holds = "front end (aio.outside_engine_ms)", outside > engine
    elif wl.name == "viewport":
        claim = "engine and traversal"
        holds = engine > outside and largest_replay_layer == "traversal"
    else:
        claim = "WAL and index write path in write_p50_ms"
        holds = write_path_ms > outside
    return {
        "claim": claim,
        "holds": holds,
        "served_read_ms": {"front_end": outside, "engine": engine},
        "replay_us_per_request": shares,
        "largest_replay_layer": largest_replay_layer,
        "write_path_share_of_write_p50": write_path_ms / write_p50_ms,
        "front_end_share_of_write_p50": outside / write_p50_ms,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["viewport", "point_lookup", "mixed_durable"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    # SIGTERM unwinds like an exception, so the servers and temporary
    # directories are cleaned up on that exit path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result, details = run(args, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if not details["validity"]["valid"]:
        # Figures from late blocks measure the generator: no result.
        print(json.dumps(details, sort_keys=True), file=sys.stderr)
        print("error: the generator ran late in too many blocks; no result", file=sys.stderr)
        return 2 if details["correct"] else 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args, tmp_dir):
    from repro.data import generate_county

    import loadgen
    import oracle
    import workloads as W
    from server import COUNTY, SCALE, Server, delta, snapshot

    wl = W.WORKLOADS[args.workload]
    # A workload without writes of its own gets a short write phase in
    # each block, so every workload reports write latency, spread over
    # the run. Writes empty the result cache and the backend's derived
    # state (the vector backend's mirrors), so each comes right after the
    # open loop and the closed loop re-warms before the next open loop.
    write_phase = not wl.durable
    segments = generate_county(COUNTY, scale=float(SCALE)).segments
    source = W.StreamSource(wl, segments, args.seed)
    block_s = args.seconds / BLOCKS
    open_s = block_s * OPEN_SHARE
    closed_s = block_s * (CLOSED_SHARE if write_phase else 1.0 - OPEN_SHARE)
    write_s = block_s - open_s - closed_s if write_phase else 0.0
    open_stream = source.stream("open")

    def block_schedule(b):
        offsets = W.poisson_schedule(wl.rate, open_s, args.seed, f"open-{b}")
        return offsets, [next(open_stream) for _ in offsets]

    schedule = [block_schedule(b) for b in range(BLOCKS)]
    open_reqs = [req for _, reqs in schedule for req in reqs]
    closed_stream = source.stream("closed")
    write_stream = W.write_probe(segments, args.seed)
    stride = max(1, len(open_reqs) // OPEN_CHECKS)

    def keep_open(i, req):
        return req["op"] in W.WRITE_OPS or i % stride == 0

    def keep_closed(i, req):
        return req["op"] in W.WRITE_OPS or i % CLOSED_CHECK_EVERY == 0

    def is_read(rec):
        return rec.ok and rec.req["op"] in W.READ_OPS

    def read_ms(blk):
        return [(r.done - r.due) * 1e3 for r in blk["open"] if is_read(r)]

    def fill(prev, req):
        if req["op"] == "delete":
            req["seg_id"] = json.loads(prev.body)["result"]

    # The server gets one CPU and the generator another, so neither
    # steals the other's time slices.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = {cpus[0]} if len(cpus) >= 2 else None
    if server_cpus:
        os.sched_setaffinity(0, set(cpus[1:]))
    setups = []
    for _ in range(SETUP_REPS[wl.durable] - 1):
        server = Server(ROOT, wl, tmp_dir, server_cpus)
        setups.append(server.setup_s)
        server.stop()
    server = Server(ROOT, wl, tmp_dir, server_cpus)
    setups.append(server.setup_s)
    conns = []
    blocks = []
    probe_writes = []
    open_delta = {}
    try:
        conns = [loadgen.Conn(server.address, wl.wire) for _ in range(CONNECTIONS)]
        first = snapshot(conns[0])
        initial_bytes = server.disk_bytes() if wl.durable else 0
        gc.disable()
        # Warm the cache, the pool and lazily built backend state first.
        warm_stream = source.stream("warmup")
        warmup, _ = loadgen.closed_loop(
            conns, itertools.islice(warm_stream, WARMUP_REQUESTS), wl.depth, math.inf, keep_closed
        )
        # Blocks interleave the phases over the whole run, and each metric
        # is taken over the punctual blocks: a block in which the
        # generator itself ran late measured the generator, not the
        # server, and is replaced by an extra block (at most EXTRA_BLOCKS).
        while sum(blk["valid"] for blk in blocks) < BLOCKS and len(blocks) < BLOCKS + EXTRA_BLOCKS:
            offsets, reqs = schedule[len(blocks)] if len(blocks) < BLOCKS else block_schedule(len(blocks))
            before = snapshot(conns[0])
            block = {"open": loadgen.open_loop(conns, reqs, offsets, keep_open)}
            for key, value in delta(snapshot(conns[0]), before).items():
                open_delta[key] = open_delta.get(key, 0) + value
            if write_phase:
                probe_writes += loadgen.sequential(conns[0], write_stream, write_s, fill)
            block["closed"], block["completed"] = loadgen.closed_loop(
                conns, closed_stream, wl.depth, closed_s, keep_closed
            )
            late = [r.late * 1e3 for r in block["open"] if r.late is not None]
            block["late_p50_ms"], block["late_p95_ms"] = percentile(late, 50), percentile(late, 95)
            block["valid"] = block["late_p50_ms"] <= LATE_SHARE * percentile(read_ms(block), 50)
            blocks.append(block)
        gc.enable()
        last = snapshot(conns[0])
        rss_mb = server.peak_rss_mb()
        if wl.durable:
            # Space is measured after a checkpoint folds the log in, so it
            # does not grow with how many writes a faster server took.
            log_bytes = server.disk_bytes() - initial_bytes
            conns[0].call({"op": "checkpoint"})
            disk_bytes = server.disk_bytes()
        else:
            log_bytes = 0
            disk_bytes = last["stats"]["disk"]["pages"] * PAGE_BYTES
    finally:
        gc.enable()
        for conn in conns:
            conn.close()
        server.stop()

    all_recs = warmup + probe_writes + [r for blk in blocks for phase in ("open", "closed") for r in blk[phase]]
    writes = [r for r in all_recs if r.req["op"] in W.WRITE_OPS]
    sampled = [r for r in all_recs if r.keep and r.ok and r.req["op"] in W.READ_OPS]
    checked, problems = oracle.check_reads(segments, [w for w in writes if w.ok], sampled)
    deletes = sum(1 for w in writes if w.ok and w.req["op"] == "delete")
    live = last["stats"]["index"]["segments"] - deletes
    overloaded = sum(1 for r in all_recs if not r.ok and r.body and b"server_overloaded" in r.body)
    failed = sum(1 for r in all_recs if not r.ok) + len(problems)
    consistent = last["stats"]["counters_consistent"]
    correct = not problems and consistent and all(w.ok for w in writes)

    measured = [blk for blk in blocks if blk["valid"]]
    valid = len(measured) >= BLOCKS
    if not valid:
        return None, {
            "workload": args.workload,
            "seed": args.seed,
            "validity": {"valid": False, "valid_blocks": len(measured), "blocks_run": len(blocks)},
            "correct": bool(correct),
            "wrong_replies": problems[:5],
            "counters_consistent": consistent,
            "block_late_p50_ms": [blk["late_p50_ms"] for blk in blocks],
            "block_read_p50_ms": [percentile(read_ms(blk), 50) for blk in blocks],
        }

    def pooled_ms(pick, q):
        return percentile([x for blk in measured for x in pick(blk)], q)

    if write_phase:
        write_lat = [(r.done - r.sent) * 1e3 for r in probe_writes if r.ok]
    else:
        write_lat = [(r.done - r.due) * 1e3 for blk in measured for r in blk["open"] if r.ok and r.req["op"] in W.WRITE_OPS]

    open_recs = [r for blk in blocks for r in blk["open"]]
    late_ms = [r.late * 1e3 for r in open_recs if r.late is not None]
    late_p50, late_p99 = percentile(late_ms, 50), percentile(late_ms, 99)
    read_p50, read_p90, read_p95, read_p99 = (pooled_ms(read_ms, q) for q in (50, 90, 95, 99))
    whole = delta(last, first)
    n_writes = sum(1 for w in writes if w.ok)
    qps = sum(b["completed"] for b in measured) / (closed_s * len(measured))

    layers = None
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "read_p50_ms": read_p50,
            "write_p50_ms": percentile(write_lat, 50),
            "throughput_qps": qps,
            "server_rss_mb": rss_mb,
            "disk_bytes_per_segment": disk_bytes / live,
        }
    else:
        import traced

        engine_n = sum(open_delta.get(f"engine.{op}.count", 0) for op in W.READ_OPS)
        engine_s = sum(open_delta.get(f"engine.{op}.sum", 0.0) for op in W.READ_OPS)
        engine_ms = ratio(engine_s, engine_n) * 1e3
        send_reply_ms = statistics.fmean((r.done - r.sent) * 1e3 for r in open_recs if is_read(r))
        hits = whole["cache.hits"]
        metrics = {
            "aio.outside_engine_ms": send_reply_ms - engine_ms,
            "service.engine_ms": engine_ms,
            "service.cache.hit_ratio": ratio(hits, hits + whole["cache.misses"]),
            "service.cache.invalidations_per_write": ratio(whole["cache.invalidations"], n_writes),
            "service.latch.contended_ratio": ratio(whole["latch.contended"], whole["latch.acquisitions"]),
            "wal.fsyncs_per_write": ratio(whole["wal.fsyncs"], n_writes),
            "wal.bytes_per_write": ratio(log_bytes, n_writes),
            "aio.overloaded": whole.get("overloaded", 0),
            "loadgen.late_p50_ms": late_p50,
            "loadgen.late_p99_ms": late_p99,
            "loadgen.replaced_blocks": len(blocks) - BLOCKS,
        }
        replay_writes = [] if wl.durable else list(itertools.islice(write_stream, REPLAY_WRITES))
        layer_metrics, shares, results_per_read = traced.replay(
            wl, open_reqs, replay_writes, args.seed, tmp_dir,
            os.path.join(OUT, f"replay-spans-{args.workload}-{args.seed}.jsonl"),
        )
        metrics.update(layer_metrics)
        layers = chosen_layer(wl, metrics, shares, percentile(write_lat, 50))
        layers["results_per_read"] = results_per_read

    seen = set()
    repeats = 0
    for req in open_reqs:
        key = json.dumps(req, sort_keys=True)
        repeats += key in seen
        seen.add(key)
    n_open = len(open_reqs)
    stats0 = first["stats"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "properties": {
            "structure": wl.structure,
            "backend": wl.backend,
            "durable": wl.durable,
            "wire": wl.wire,
            "open_rate_per_s": wl.rate,
            "open_load_share": wl.rate / qps,
            "closed_in_flight": f"{CONNECTIONS}x{wl.depth}",
            "blocks": BLOCKS,
            "open_requests": n_open,
            "read_share": ratio(sum(r["op"] in W.READ_OPS for r in open_reqs), n_open),
            "write_share": ratio(sum(r["op"] in W.WRITE_OPS for r in open_reqs), n_open),
            "repeat_share": ratio(repeats, n_open),
            "distinct_reads": len({json.dumps(r, sort_keys=True) for r in open_reqs if r["op"] in W.READ_OPS}),
            "result_cache_entries": stats0["cache"]["capacity"],
            "index_pages": stats0["index"]["pages"],
            "pool_pages": stats0["pool"]["capacity"],
            "mean_reply_bytes": statistics.fmean(r.nbytes for r in open_recs if is_read(r)),
            "write_samples": len(write_lat),
        },
        "validity": {
            "valid": valid,
            "valid_blocks": sum(blk["valid"] for blk in blocks),
            "blocks_run": len(blocks),
            "loadgen_late_p50_ms": late_p50,
            "loadgen_late_p99_ms": late_p99,
            "read_p50_ms": read_p50,
        },
        # These tails move too much between runs on a small shared machine
        # to gate on; they are reported here for the record.
        "tails_ms": {
            "read_p90": read_p90,
            "read_p95": read_p95,
            "read_p99": read_p99,
            "write_p90": percentile(write_lat, 90),
            "write_p95": percentile(write_lat, 95),
            "write_p99": percentile(write_lat, 99),
        },
        "checked_replies": checked,
        "wrong_replies": problems[:5],
        "counters_consistent": consistent,
        "overloaded": overloaded,
        "failed_frac": ratio(failed, len(all_recs)),
        "setups_s": setups,
        "layers": layers,
        "block_read_p50_ms": [percentile(read_ms(blk), 50) for blk in blocks],
        "block_qps": [blk["completed"] / closed_s for blk in blocks],
        "block_late_p50_ms": [blk["late_p50_ms"] for blk in blocks],
        "block_late_p95_ms": [blk["late_p95_ms"] for blk in blocks],
    }
    result = {
        "correct": bool(correct),
        "attempted": len(all_recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    return result, details


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException as exc:  # reported, never a result line
        print(f"error: benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
