"""The traced run: the served stream replayed in this process, one at a time.

No tracing is added to the program. The spans here surround calls into
each layer's public functions: the wire codec (``encode_frame`` and
``decode_payload``, or the v1 JSON lines), ``parse_request``,
``QueryEngine.execute`` -- given a delegating ``TraversalBackend`` and a
store wrapper through its ``backend=`` and ``store=`` arguments -- and
the index's own ``insert``/``delete``. Spans stay in memory and are
written as JSON lines when the replay ends.

The engine, cache and pool behave exactly as in the server, so the
paper's counters from a replay repeat to the unit for a given seed.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.aio.frames import HEADER_BYTES, decode_payload, encode_frame
from repro.core.backends import resolve_backend
from repro.core.interface import TraversalBackend
from repro.data import generate_county
from repro.geometry import Segment
from repro.harness.experiment import build_structure
from repro.metric_names import BBOX_COMPS, BUFFER_HITS, DISK_READS, SEGMENT_COMPS
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryEngine
from repro.service.api import NearestQuery, PointQuery, WindowQuery, parse_request
from repro.service.server import shape_result
from repro.wal import DurableStore, WriteAheadLog

from server import COUNTY, SCALE
from workloads import READ_OPS, layer_probe

PROBE_QUERIES = 200

_COMPACT = (",", ":")


class Spans:
    """In-memory spans: (request, name, start, end, parent span index)."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self._stack: List[int] = []
        self.request = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([self.request, name, time.perf_counter(), 0.0, parent])
        i = len(self.rows) - 1
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.rows[i][3] = time.perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for request, name, start, end, parent in self.rows:
                fh.write(json.dumps({"request": request, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


class TracingBackend(TraversalBackend):
    """Delegates every traversal and records a span plus its counter deltas."""

    name = "traced"

    def __init__(self, inner: TraversalBackend, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.supports_batch = inner.supports_batch
        self.counts: Dict[str, int] = defaultdict(int)

    def run(self, index, spec):
        counters = index.ctx.counters  # the engine's per-query counter set
        before = counters.snapshot()
        i = self.spans.open(f"core.traverse.{spec.op}")
        try:
            return self.inner.run(index, spec)
        finally:
            self.spans.close(i)
            for name, value in (counters.snapshot() - before).as_dict().items():
                self.counts[name] += value

    def run_batch(self, index, specs):
        return [self.run(index, spec) for spec in specs]

    def invalidate(self) -> None:
        self.inner.invalidate()

    def describe(self) -> dict:
        return self.inner.describe()


class TracingStore:
    """A ``DurableStore`` (or a bare log) with timed appends and commits."""

    def __init__(self, inner, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def _timed(self, name: str, fn, *args):
        i = self.spans.open(name)
        try:
            return fn(*args)
        finally:
            self.spans.close(i)

    def log_insert(self, seg_id: int, segment: Segment) -> int:
        return self._timed("wal.append", self.inner.log_insert, seg_id, segment)

    def log_delete(self, seg_id: int) -> int:
        return self._timed("wal.append", self.inner.log_delete, seg_id)

    def commit(self) -> bool:
        return self._timed("wal.commit", self.inner.commit)


def _time_index_writes(index, spans: Spans) -> None:
    """Span the index's own insert and delete, each under its own name,
    on this instance only."""
    for method in ("insert", "delete"):
        inner = getattr(index, method)

        def timed(seg_id, _inner=inner, _name="core." + method):
            i = spans.open(_name)
            try:
                return _inner(seg_id)
            finally:
                spans.close(i)

        setattr(index, method, timed)


def _wire_codec(wire: int):
    """(encode request, decode request, encode reply, decode reply) as
    the client and the server do them on this wire."""
    if wire == 2:

        def decode(data: bytes) -> Dict[str, Any]:
            return decode_payload(data[HEADER_BYTES:])

        return encode_frame, decode, partial(encode_frame, response=True), decode

    def dumps(rid: int, obj: Dict[str, Any]) -> bytes:
        return json.dumps(obj, separators=_COMPACT).encode() + b"\n"

    return dumps, json.loads, dumps, json.loads


def _stack(workload, tmp_dir: str, name: str, spans: Optional[Spans]):
    """Build one index with its store; ``spans`` wraps its layers.

    Returns ``(engine, side_log, map_data, seconds per setup step)``.
    """
    times = {}
    t = time.perf_counter()
    map_data = generate_county(COUNTY, scale=float(SCALE))
    times["data.generate_s"] = time.perf_counter() - t
    t = time.perf_counter()
    index = build_structure(workload.structure, map_data).index
    times["core.build_s"] = time.perf_counter() - t
    wal_dir = os.path.join(tmp_dir, name)
    t = time.perf_counter()
    store = side_log = None
    if workload.durable:
        store = DurableStore.create(wal_dir, index)
    else:
        # No durable store in this workload: its writes are also appended
        # to a bare log so the WAL layer is measured on the same records.
        os.makedirs(wal_dir)
        side_log = WriteAheadLog.create(os.path.join(wal_dir, "wal.log"))
    times["wal.create_s"] = time.perf_counter() - t
    backend = resolve_backend(workload.backend)
    if spans is not None:
        backend = TracingBackend(backend, spans)
        store = TracingStore(store, spans) if store is not None else None
        side_log = TracingStore(side_log, spans) if side_log is not None else None
        _time_index_writes(index, spans)
    engine = QueryEngine(index, store=store, registry=MetricsRegistry(), backend=backend)
    return engine, side_log, map_data, times


def _drive(engine, side_log, wire: int, requests: Sequence[Dict[str, Any]], spans: Optional[Spans]):
    """Replay one request at a time: wire codec, parse, execute, reply.

    Returns ``(seconds, reads, results)``; reads and results count only
    read requests. ``seg_id: None`` deletes name the preceding insert.
    """
    enc_req, dec_req, enc_rep, dec_rep = _wire_codec(wire)
    session = engine.session("replay")

    def span(name: str) -> int:
        return spans.open(name) if spans is not None else -1

    def end(i: int) -> None:
        if spans is not None:
            spans.close(i)

    reads = results = 0
    last_insert: Optional[int] = None
    start = time.perf_counter()
    for n, req in enumerate(requests):
        if spans is not None:
            spans.request = n
        if req["op"] == "delete" and req["seg_id"] is None:
            req = dict(req, seg_id=last_insert)
        root = span("request")
        i = span("aio.frames")
        raw = dec_req(enc_req(n, req))
        end(i)
        i = span("api.parse")
        typed = parse_request(raw)
        end(i)
        i = span("service.execute")
        result = engine.execute(typed, session=session)
        end(i)
        if side_log is not None and req["op"] in ("insert", "delete"):
            if req["op"] == "insert":
                side_log.log_insert(result, Segment(*(float(req[k]) for k in ("x1", "y1", "x2", "y2"))))
            else:
                side_log.log_delete(req["seg_id"])
            side_log.commit()
        i = span("aio.frames")
        reply = dec_rep(enc_rep(n, {"ok": True, "result": shape_result(req["op"], result)}))
        end(i)
        end(root)
        if req["op"] == "insert":
            last_insert = reply["result"]
        elif req["op"] in READ_OPS:
            reads += 1
            results += len(reply["result"])
    return time.perf_counter() - start, reads, results


def replay(workload, requests: Sequence[Dict[str, Any]], writes: Sequence[Dict[str, Any]], seed: int, tmp_dir: str, spans_path: str):
    """Replay ``requests`` then ``writes`` on two fresh in-process builds,
    untraced then traced.

    ``writes`` holds the write-phase insert/delete pairs of workloads
    without writes of their own. The untraced twin gives
    ``loadgen.trace_overhead_pct``. Read ops the workload never sends get
    a seeded uncached probe of their own after the traced replay, so
    every per-op traversal time is measured on this workload's index;
    the paper counts cover only the replayed requests.

    Returns ``(per-layer metrics, microseconds per request by layer,
    mean results per read)``.
    """
    stream = list(requests) + list(writes)
    engine, side_log, _, _ = _stack(workload, tmp_dir, "untraced-store", None)
    try:
        plain_s, _, _ = _drive(engine, side_log, workload.wire, stream, None)
    finally:
        _close(engine, side_log)
    spans = Spans()
    engine, side_log, map_data, times = _stack(workload, tmp_dir, "traced-store", spans)
    try:
        traced_s, reads, results = _drive(engine, side_log, workload.wire, stream, spans)
        counts = dict(engine.backend.counts)
        sent = {req["op"] for req in requests}
        spans.request = -1  # probe spans belong to no replayed request
        for op in READ_OPS:
            if op not in sent:
                for req in layer_probe(map_data.segments, seed, op, PROBE_QUERIES):
                    engine.execute(_uncached(req))
        if not engine.counters_consistent():
            raise RuntimeError("replay engine counters are inconsistent")
    finally:
        _close(engine, side_log)
    spans.write(spans_path)
    metrics, shares, results_per_read = _layer_metrics(spans, counts, reads, results, len(stream), len(requests))
    metrics.update(times)
    metrics["loadgen.trace_overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
    return metrics, shares, results_per_read


def _close(engine, side_log) -> None:
    if engine.store is not None:
        engine.store.close()
    if side_log is not None:
        side_log.close()


def _uncached(req: Dict[str, Any]):
    if req["op"] == "point":
        return PointQuery(req["x"], req["y"], use_cache=False)
    if req["op"] == "nearest":
        return NearestQuery(req["x"], req["y"], k=req["k"], use_cache=False)
    return WindowQuery(req["x1"], req["y1"], req["x2"], req["y2"], use_cache=False)


# Replay spans grouped into the layers a request's time is split into.
LAYER_OF = {
    "aio.frames": "wire codec",
    "api.parse": "parse",
    "core.traverse.point": "traversal",
    "core.traverse.nearest": "traversal",
    "core.traverse.window": "traversal",
    "wal.append": "wal",
    "wal.commit": "wal",
    "core.insert": "index write",
    "core.delete": "index write",
}


def _layer_metrics(spans: Spans, counts, reads: int, results: int, n_requests: int, n_own: int):
    """Per-layer metrics; microseconds per request by layer over the
    workload's own ``n_own`` requests (not the appended write phase);
    and the mean number of results per read."""
    rows = spans.rows
    child_time: Dict[int, float] = defaultdict(float)
    for request, name, start, end, parent in rows:
        if parent >= 0:
            child_time[parent] += end - start
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    frames_per_request: Dict[int, float] = defaultdict(float)
    execute_self = own_self = 0.0
    shares: Dict[str, float] = defaultdict(float)
    for k, (request, name, start, end, parent) in enumerate(rows):
        # Nested same-name spans (a reinsert inside an insert) count once.
        if parent >= 0 and rows[parent][1] == name:
            continue
        total[name] += end - start
        calls[name] += 1
        own = 0 <= request < n_own
        if own and name in LAYER_OF:
            shares[LAYER_OF[name]] += end - start
        if name == "aio.frames":
            frames_per_request[request] += end - start
        elif name == "service.execute":
            execute_self += (end - start) - child_time[k]
            if own:
                own_self += (end - start) - child_time[k]
    shares["engine self"] = own_self

    def mean_us(name: str) -> float:
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    pages = counts[DISK_READS] + counts[BUFFER_HITS]
    return {
        "api.parse_us": mean_us("api.parse"),
        "service.execute_self_us": execute_self / n_requests * 1e6,
        "aio.frames_us": sum(frames_per_request.values()) / len(frames_per_request) * 1e6,
        "core.traverse_us.point": mean_us("core.traverse.point"),
        "core.traverse_us.nearest": mean_us("core.traverse.nearest"),
        "core.traverse_us.window": mean_us("core.traverse.window"),
        "storage.disk_accesses_per_query": counts[DISK_READS] / reads,
        "storage.buffer_hit_ratio": counts[BUFFER_HITS] / pages if pages else 0.0,
        "storage.segment_comps_per_query": counts[SEGMENT_COMPS] / reads,
        "core.bbox_comps_per_query": counts[BBOX_COMPS] / reads,
        "wal.append_us": mean_us("wal.append"),
        "wal.commit_us": mean_us("wal.commit"),
        "core.insert_us": mean_us("core.insert"),
    }, {layer: seconds / n_own * 1e6 for layer, seconds in shares.items()}, results / reads
