"""The R-tree family's searches, one loop each, shared by every backend.

Guttman's R-tree, the R*-tree and the paper's R+-tree all keep one node
per page with ``(rect, ref)`` entries, so they share one stack search
(:func:`tree_search`) and one nearest-neighbour expansion
(:meth:`TreeIndex.nn_expand`). A point query and a window query differ
only in the per-node *match* function handed to the search; the
vectorized backend (:mod:`repro.core.vector`) passes a numpy mask over
its columnar node mirror through the same seam, so pool traffic,
counter charges and candidate order are identical on both backends by
construction.

EXPLAIN rides on the same loops. Each takes the query's
:class:`~repro.obs.explain.ExplainProfile` -- ``None`` on the plain
path, where the only extra work is the ``is not None`` tests -- marks
the live counters before a node visit and hands the movement to the
profile after it, attributed to the node's depth. Summed over the
buckets that is exactly what the query charged, because there is no
second loop that could drift from the first.

This lives in ``repro.core`` (not ``repro.obs``) deliberately: the
charge ``counters.bbox_comps += len(node.entries)`` is a counter
mutation, and lint rule RP03 restricts those to the storage and core
layers that own the measurement.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.core.interface import NNItem, SpatialIndex, query_lower_bound
from repro.geometry import Point, Rect
from repro.obs.trace import TRACER

#: ``match(page_id, node)`` -> the refs of ``node``'s entries that meet
#: the query, in entry order.
NodeMatch = Callable[[int, Any], List[int]]


def tree_search(index: "TreeIndex", match: NodeMatch, prof=None) -> List[int]:
    """The stack-based containment/overlap search of the R-tree family.

    Pop a page, charge one bbox comparison per entry, collect the
    matching refs of a leaf and push the matching children of an
    internal node (depth + 1). ``prof`` is the query's EXPLAIN profile,
    or ``None``.
    """
    pool = index.ctx.pool
    counters = index.ctx.counters
    out: List[int] = []
    stack = [(index._root_id, 0)]
    while stack:
        page_id, depth = stack.pop()
        if prof is not None:
            base = prof.mark(counters)
        node = pool.get(page_id)
        n = len(node.entries)
        counters.bbox_comps += n
        matched = match(page_id, node)
        if prof is not None:
            prof.visit(depth, counters, base, n, len(matched))
        if node.is_leaf:
            out.extend(matched)
        else:
            depth += 1
            stack.extend([(ref, depth) for ref in matched])
    return out


class TreeIndex(SpatialIndex):
    """Base of the R-tree family: the searches Guttman, R* and R+ share.

    Subclasses keep their root page in ``_root_id`` and say, through
    :meth:`_leaf_bound`, which rectangle lower-bounds the distance to a
    leaf's contents.
    """

    _root_id: int

    def _leaf_bound(self, node) -> Rect:
        """Rectangle whose distance lower-bounds a leaf's candidates."""
        raise NotImplementedError

    def candidate_ids_at_point(self, p: Point) -> List[int]:
        return tree_search(
            self,
            lambda _, node: [
                ref for r, ref in node.entries if r.contains_point(p)
            ],
            TRACER.current_profile() if TRACER.profiling else None,
        )

    def candidate_ids_in_rect(self, rect: Rect) -> List[int]:
        return tree_search(
            self,
            lambda _, node: [ref for r, ref in node.entries if r.intersects(rect)],
            TRACER.current_profile() if TRACER.profiling else None,
        )

    def nn_start(self, p: Point) -> List[NNItem]:
        return [NNItem(0.0, False, self._root_id)]

    def nn_expand(self, ref: Any, p: Point) -> List[NNItem]:
        """Expand one node for the best-first search.

        Under EXPLAIN the node's level comes from the profile's node-level
        map (the root defaults to 0; children are registered here at
        ``depth + 1``), so heap-ordered visits still attribute to the
        right level.
        """
        prof = TRACER.current_profile() if TRACER.profiling else None
        counters = self.ctx.counters
        if prof is not None:
            base = prof.mark(counters)
        node = self.ctx.pool.get(ref)
        n = len(node.entries)
        counters.bbox_comps += n
        if prof is not None:
            depth = prof.node_level(ref)
            prof.visit(depth, counters, base, n, n)
        if node.is_leaf:
            # As in the paper's implementations, examining a leaf examines
            # its segments: candidates inherit the leaf's own lower bound,
            # so every entry of a leaf nearer than the answer is fetched
            # and compared (per-entry MBR distances would prune further,
            # but would not reproduce the measured segment comparisons).
            if not n:
                return []
            d = query_lower_bound(p, self._leaf_bound(node))
            return [NNItem(d, True, child) for _, child in node.entries]
        if prof is not None:
            for _, child in node.entries:
                prof.set_node_level(child, depth + 1)
        return [
            NNItem(query_lower_bound(p, r), False, child)
            for r, child in node.entries
        ]
