"""Brute-force answers for sampled replies, independent of every index.

Each check scans every live segment with the :mod:`repro.geometry`
predicates; nothing here touches a tree, a pool or the server's cache.

Concurrent writes make some answers legitimately uncertain: a write
that was in flight at any moment between a read's send and its reply
may or may not be visible to that read. :func:`check_reads` replays the
acked writes in ack order, applies to each sampled read exactly the
writes acked before it was sent, and ignores only the ids of writes
that overlapped it. Every other id must match exactly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point, Rect, Segment

DIST_TOL = 1e-9


class Oracle:
    """The live segment set, maintained from acked writes."""

    def __init__(self, segments: Sequence[Segment]) -> None:
        self.geom: Dict[int, Segment] = dict(enumerate(segments))

    def apply(self, req: Dict[str, Any], result: Any) -> None:
        if req["op"] == "insert":
            self.geom[int(result)] = Segment(
                float(req["x1"]), float(req["y1"]), float(req["x2"]), float(req["y2"])
            )
        elif req["op"] == "delete":
            del self.geom[req["seg_id"]]

    def window(self, req: Dict[str, Any]) -> Set[int]:
        x1, x2 = sorted((req["x1"], req["x2"]))
        y1, y2 = sorted((req["y1"], req["y2"]))
        rect = Rect(x1, y1, x2, y2)
        out = set()
        for sid, s in self.geom.items():
            # Bounding-box reject first: the exact predicate decides.
            if max(s.x1, s.x2) < x1 or min(s.x1, s.x2) > x2:
                continue
            if max(s.y1, s.y2) < y1 or min(s.y1, s.y2) > y2:
                continue
            if s.intersects_rect(rect):
                out.add(sid)
        return out

    def point(self, req: Dict[str, Any]) -> Set[int]:
        p = Point(float(req["x"]), float(req["y"]))
        return {sid for sid, s in self.geom.items() if s.has_endpoint(p)}

    def nearest(self, req: Dict[str, Any]) -> List[Tuple[float, int]]:
        p = Point(float(req["x"]), float(req["y"]))
        ranked = sorted((s.distance2_to_point(p), sid) for sid, s in self.geom.items())
        return ranked

    def verify(self, req: Dict[str, Any], result: Any, ignore: Set[int]) -> Optional[str]:
        """``None`` when ``result`` is right, else what is wrong with it."""
        op = req["op"]
        if op in ("window", "point"):
            if not isinstance(result, list):
                return f"{op} result is not a list"
            got = set(result)
            if len(got) != len(result):
                return f"{op} result repeats an id"
            want = self.window(req) if op == "window" else self.point(req)
            missing = (want - got) - ignore
            extra = (got - want) - ignore
            if missing or extra:
                return f"{op} {req}: missing {sorted(missing)[:5]}, extra {sorted(extra)[:5]}"
            return None
        if op == "nearest":
            if ignore:
                raise ValueError("nearest answers under concurrent writes are not checkable")
            ranked = self.nearest(req)
            k = min(int(req.get("k", 1)), len(ranked))
            if not isinstance(result, list) or len(result) != k:
                return f"nearest {req}: expected {k} results, got {result!r}"
            true = {sid: d for d, sid in ranked}
            ids = [int(pair[0]) for pair in result]
            if len(set(ids)) != k:
                return f"nearest {req}: repeated ids {ids}"
            for (sid, dist2), (want_d, _) in zip(result, ranked[:k]):
                if sid not in true or abs(true[sid] - dist2) > DIST_TOL * max(1.0, dist2):
                    return f"nearest {req}: id {sid} is not at distance^2 {dist2}"
                if abs(dist2 - want_d) > DIST_TOL * max(1.0, want_d):
                    return f"nearest {req}: distance^2 {dist2}, the {k} nearest are {ranked[:k]}"
            return None
        raise ValueError(f"not a read op: {op}")


def check_reads(segments: Sequence[Segment], writes: Iterable[Any], reads: Iterable[Any]) -> Tuple[int, List[str]]:
    """Check sampled read records against the brute-force answer.

    ``writes`` and ``reads`` are generator records (``req``, ``sent``,
    ``done``, ``body``); writes must all have been acked OK. Returns
    ``(checked, problems)``.
    """
    writes = sorted(writes, key=lambda w: w.done)
    results = {id(w): json.loads(w.body)["result"] for w in writes}
    touched = {
        id(w): w.req["seg_id"] if w.req["op"] == "delete" else int(results[id(w)])
        for w in writes
    }
    oracle = Oracle(segments)
    applied = 0
    checked = 0
    problems: List[str] = []
    for rec in sorted(reads, key=lambda r: r.sent):
        while applied < len(writes) and writes[applied].done < rec.sent:
            w = writes[applied]
            oracle.apply(w.req, results[id(w)])
            applied += 1
        ignore = {touched[id(w)] for w in writes[applied:] if w.sent < rec.done}
        if rec.req["op"] == "nearest" and ignore:
            continue
        reply = json.loads(rec.body)
        checked += 1
        if not reply.get("ok"):
            problems.append(f"{rec.req}: error reply {reply.get('error')}")
            continue
        problem = oracle.verify(rec.req, reply["result"], ignore)
        if problem is not None:
            problems.append(problem)
    return checked, problems
