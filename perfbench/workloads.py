"""Seeded request streams for the three served workloads.

Every stream is a pure function of the map, the workload and the seed,
so two runs with one seed send the same requests. Only the program's
wire requests leave this module: the server never sees the seed.

* ``viewport`` -- R+-tree, vector backend, wire v2 pipelined. Window-only
  map tiles at three zoom levels (512, 1024 and 2048 units), drawn with
  Zipf(1.0) popularity over a seeded ranking of all 1344 tiles, so the
  head of the hot set fits the server's 256-entry result cache.
* ``point_lookup`` -- PMR quadtree, scalar backend, wire v1 one request
  in flight per connection. 60% endpoint ``point`` and 40% ``nearest``
  (k in 1..3) drawn uniformly over segments: the working set is far
  larger than the result cache.
* ``mixed_durable`` -- R*-tree, scalar backend, durable (``--wal``),
  wire v2 pipelined. 65% reads near a few write sites (endpoint points
  and 512-unit windows), 5% uniform reads, 20% inserts of short segments
  at the sites and 10% deletes of distinct original segments there.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

WORLD = 16384
ZOOM_TILES = (512, 1024, 2048)
SITES = 32
SITE_RADIUS = 512
READ_OPS = ("point", "window", "nearest")
WRITE_OPS = ("insert", "delete")


@dataclass(frozen=True)
class Workload:
    name: str
    structure: str
    backend: str
    durable: bool
    wire: int  # 1 = v1 JSON lines, 2 = v2 pipelined frames
    depth: int  # requests kept in flight per connection in the closed loop
    rate: float  # open-loop Poisson arrival rate, requests per second


# Each open-loop rate is a tenth of the workload's closed-loop capacity,
# rounded to 10 requests per second, so the open loop measures latency at
# light load (about 10% utilisation) rather than queueing. The capacities
# are the medians of 30 runs' ``throughput_qps`` (seeds 101-110, 201-210
# and 301-310, 15-second runs) on a 2-vCPU virtual machine: viewport
# 3730/s, point_lookup 2587/s, mixed_durable 2046/s. Each run records
# its own rate-to-capacity share as ``open_load_share``.
WORKLOADS: Dict[str, Workload] = {
    "viewport": Workload("viewport", "R+", "vector", False, 2, 8, 370.0),
    "point_lookup": Workload("point_lookup", "PMR", "scalar", False, 1, 1, 260.0),
    "mixed_durable": Workload("mixed_durable", "R*", "scalar", True, 2, 8, 200.0),
}


def _rng(seed: int, phase: str) -> random.Random:
    return random.Random(f"{seed}:{phase}")


class StreamSource:
    """Infinite request iterators for one workload, seed and map.

    Each phase of a run draws from its own sub-stream (``phase`` names
    it), so the open-loop requests do not depend on how many requests
    an earlier, timed phase happened to consume. Deletes draw from one
    shared pool of original segment ids, so no id is deleted twice.
    """

    def __init__(self, workload: Workload, segments: Sequence[Any], seed: int) -> None:
        self.workload = workload
        self.segments = segments
        self.seed = seed
        rng = _rng(seed, "layout")
        if workload.name == "viewport":
            tiles = [
                (size, tx, ty)
                for size in ZOOM_TILES
                for tx in range(WORLD // size)
                for ty in range(WORLD // size)
            ]
            rng.shuffle(tiles)
            self._tiles = tiles
            weights = [1.0 / (rank + 1) for rank in range(len(tiles))]
            self._cdf = list(itertools.accumulate(weights))
        elif workload.name == "mixed_durable":
            self._sites = [self._endpoint(rng.randrange(len(segments)), rng) for _ in range(SITES)]
            near: List[List[int]] = [[] for _ in self._sites]
            for seg_id, seg in enumerate(segments):
                for i, (sx, sy) in enumerate(self._sites):
                    if abs(seg.x1 - sx) <= SITE_RADIUS and abs(seg.y1 - sy) <= SITE_RADIUS:
                        near[i].append(seg_id)
                        break
            self._near = near
            pool = [seg_id for ids in near for seg_id in ids]
            rng.shuffle(pool)
            self._delete_pool = iter(pool)

    def _endpoint(self, seg_id: int, rng: random.Random) -> Tuple[float, float]:
        seg = self.segments[seg_id]
        return (seg.x1, seg.y1) if rng.random() < 0.5 else (seg.x2, seg.y2)

    def stream(self, phase: str) -> Iterator[Dict[str, Any]]:
        rng = _rng(self.seed, phase)
        make = {
            "viewport": self._viewport,
            "point_lookup": self._point_lookup,
            "mixed_durable": self._mixed,
        }[self.workload.name]
        while True:
            yield make(rng)

    def _viewport(self, rng: random.Random) -> Dict[str, Any]:
        i = bisect.bisect_left(self._cdf, rng.random() * self._cdf[-1])
        size, tx, ty = self._tiles[min(i, len(self._tiles) - 1)]
        return {
            "op": "window",
            "x1": tx * size,
            "y1": ty * size,
            "x2": (tx + 1) * size,
            "y2": (ty + 1) * size,
        }

    def _point_lookup(self, rng: random.Random) -> Dict[str, Any]:
        seg_id = rng.randrange(len(self.segments))
        if rng.random() < 0.6:
            x, y = self._endpoint(seg_id, rng)
            return {"op": "point", "x": x, "y": y}
        seg = self.segments[seg_id]
        t = rng.random()
        x = round(seg.x1 + t * (seg.x2 - seg.x1) + rng.uniform(-40, 40), 2)
        y = round(seg.y1 + t * (seg.y2 - seg.y1) + rng.uniform(-40, 40), 2)
        return {"op": "nearest", "x": x, "y": y, "k": rng.randint(1, 3)}

    def _mixed(self, rng: random.Random) -> Dict[str, Any]:
        roll = rng.random()
        site = rng.randrange(len(self._sites))
        sx, sy = self._sites[site]
        if roll < 0.20:
            x1 = min(max(sx + rng.randint(-SITE_RADIUS, SITE_RADIUS), 0), WORLD - 1)
            y1 = min(max(sy + rng.randint(-SITE_RADIUS, SITE_RADIUS), 0), WORLD - 1)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            length = rng.uniform(20.0, 120.0)
            x2 = min(max(int(x1 + length * math.cos(angle)), 0), WORLD - 1)
            y2 = min(max(int(y1 + length * math.sin(angle)), 0), WORLD - 1)
            return {"op": "insert", "x1": x1, "y1": y1, "x2": x2, "y2": y2}
        if roll < 0.30:
            seg_id = next(self._delete_pool, None)
            if seg_id is not None:
                return {"op": "delete", "seg_id": seg_id}
            # Pool exhausted (only in very long runs): read instead.
        if roll < 0.35:
            # A uniform read anywhere on the map.
            x, y = self._endpoint(rng.randrange(len(self.segments)), rng)
        else:
            ids = self._near[site]
            x, y = self._endpoint(rng.choice(ids), rng) if ids else (sx, sy)
        if rng.random() < 0.5:
            return {"op": "point", "x": x, "y": y}
        x1 = min(max(x + rng.randint(-256, 0), 0), WORLD - 512)
        y1 = min(max(y + rng.randint(-256, 0), 0), WORLD - 512)
        return {"op": "window", "x1": x1, "y1": y1, "x2": x1 + 512, "y2": y1 + 512}


def poisson_schedule(rate: float, seconds: float, seed: int, phase: str) -> List[float]:
    """Seeded Poisson arrival offsets (seconds from phase start)."""
    rng = _rng(seed, phase + ":arrivals")
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def write_probe(segments: Sequence[Any], seed: int) -> Iterator[Dict[str, Any]]:
    """Endless insert-then-delete pairs for workloads with no writes of
    their own. Each delete names the id its insert returns, so the
    sender fills it in from the reply (``seg_id: None`` here)."""
    rng = _rng(seed, "write-probe")
    while True:
        seg = segments[rng.randrange(len(segments))]
        dx, dy = rng.randint(-60, 60), rng.randint(-60, 60)
        yield {
            "op": "insert",
            "x1": seg.x1,
            "y1": seg.y1,
            "x2": min(max(seg.x1 + dx, 0), WORLD - 1),
            "y2": min(max(seg.y1 + dy, 0), WORLD - 1),
        }
        yield {"op": "delete", "seg_id": None}


def layer_probe(segments: Sequence[Any], seed: int, op: str, n: int) -> List[Dict[str, Any]]:
    """Uncached reads of one op for the traced run's per-op traversal time,
    used only for ops the workload itself never sends."""
    rng = _rng(seed, "layer-probe:" + op)
    out: List[Dict[str, Any]] = []
    for _ in range(n):
        seg = segments[rng.randrange(len(segments))]
        if op == "point":
            out.append({"op": "point", "x": seg.x1, "y": seg.y1})
        elif op == "nearest":
            out.append({"op": "nearest", "x": seg.x1 + 0.5, "y": seg.y1 + 0.5, "k": 1 + rng.randrange(3)})
        else:
            x1 = min(max(seg.x1 - 256, 0), WORLD - 512)
            y1 = min(max(seg.y1 - 256, 0), WORLD - 512)
            out.append({"op": "window", "x1": x1, "y1": y1, "x2": x1 + 512, "y2": y1 + 512})
    return out
