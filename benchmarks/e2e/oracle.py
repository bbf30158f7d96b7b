"""Brute-force query results from exact positions, one query at a time.

Same answers as ``repro.simulation.truth.GroundTruth.evaluate_at`` —
closed rectangles, kNN ordered by ``(distance, row)`` through the repo's
own ``Kernels.top_k_rows`` — without its grouped kernels, which argsort
a W x N matrix: 13 s and 1.9 GB per checkpoint at W = 1000, N = 100k,
more than the whole run it is judging.  ``--smoke`` runs check every
checkpoint against ``GroundTruth`` itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.queries import RangeQuery


def exact_results(ids: list, xs, ys, queries, kernels) -> dict:
    """``{query_id: snapshot}`` in ``Query.result_snapshot`` types."""
    results = {}
    for query in queries:
        if isinstance(query, RangeQuery):
            r = query.rect
            rows = np.flatnonzero(
                (xs >= r.min_x) & (xs <= r.max_x)
                & (ys >= r.min_y) & (ys <= r.max_y)
            )
            results[query.query_id] = frozenset(ids[i] for i in rows)
        else:
            rows = kernels.top_k_rows(
                xs, ys, query.center.x, query.center.y, query.k
            )
            found = tuple(ids[i] for i in rows)
            results[query.query_id] = (
                found if query.order_sensitive else frozenset(found)
            )
    return results
