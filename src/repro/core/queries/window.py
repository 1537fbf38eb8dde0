"""Query 5: the window (range) query.

Callers build a :class:`~repro.core.queries.spec.QuerySpec` and execute
it through a :class:`~repro.core.interface.TraversalBackend`. The scalar
reference implementation -- candidate generation through the index,
then the dedup/fetch/verify loop -- lives here.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.interface import SpatialIndex
from repro.geometry import Rect
from repro.obs.trace import TRACER


def scalar_window_query(
    index: SpatialIndex, window: Rect, mode: str = "intersects"
) -> List[int]:
    """The scalar reference implementation of query 5.

    ``mode`` selects the spatial predicate:

    * ``"intersects"`` (the paper's reading: "find all roads that pass
      through a given region") -- any part of the segment meets the
      window;
    * ``"contains"`` -- both endpoints lie inside the window (the
      segment is entirely within it).

    Candidates come from the index (R-tree traversal or the PMR window
    decomposition over blocks); each unique candidate is verified against
    its actual geometry, which is one segment comparison.
    """
    if mode not in ("intersects", "contains"):
        raise ValueError(f"mode must be 'intersects' or 'contains', got {mode!r}")
    return verify_window(
        index, index.candidate_ids_in_rect(window), window, mode
    )


def verify_window(
    index: SpatialIndex, candidates: Sequence[int], window: Rect, mode: str
) -> List[int]:
    """Dedup candidates by id, fetch each once, verify against geometry.

    Under EXPLAIN the pass is attributed to the segment table, with the
    candidate/duplicate tallies that expose the R+ and PMR duplication
    (candidates minus unique fetches is the number of extra copies the
    structure's tiling produced for this window).
    """
    prof = TRACER.current_profile() if TRACER.profiling else None
    if prof is not None:
        base = prof.mark(index.ctx.counters)
    out: List[int] = []
    seen = set()
    for seg_id in candidates:
        if seg_id in seen:
            continue
        seen.add(seg_id)
        seg = index.ctx.segments.fetch(seg_id)
        if mode == "intersects":
            if seg.intersects_rect(window):
                out.append(seg_id)
        else:
            if window.contains_point(seg.start) and window.contains_point(seg.end):
                out.append(seg_id)
    if prof is not None:
        prof.verified(
            index.ctx.counters, base, len(candidates), len(seen), len(out)
        )
    return out
