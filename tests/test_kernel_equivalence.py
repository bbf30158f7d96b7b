"""Replay equivalence for the kernel paths (repro.kernels).

The same guarantee family as ``tests/test_hotpath_caches.py``, one level
down: with every kernel call forced onto the NumPy pass
(``ops.MIN_ROWS`` patched to 1) or onto the scalar loop (patched to
10**9) the server must produce bit-identical outcomes, messages, result
snapshots, and operation counters over a full monitoring stream —
including mid-run query churn and batched updates.  The kernels are a
CPU optimisation, never a semantic change.
"""

import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.kernels import ops
from repro.obs import MetricsRegistry


def _stats_tuple(server):
    """Every ServerStats field except the wall-clock one."""
    st = server.stats
    return (
        st.location_updates, st.probes, st.safe_region_pushes,
        st.queries_registered, st.queries_checked,
        st.queries_reevaluated, st.result_changes,
    )


def _outcome_key(outcome):
    return (
        outcome.safe_region,
        sorted(outcome.probed.items()),
        [(c.query_id, c.old, c.new) for c in outcome.changes],
        outcome.queries_checked,
        outcome.queries_reevaluated,
    )


#: ``ops.MIN_ROWS`` that forces each path.
VECTOR, SCALAR = 1, 10**9


def _drive(min_rows, seed, ticks=200, n=100, movers=15, batch_every=4,
           metrics=None):
    """Replay a seeded report stream (with mid-run query churn) end to end."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "MIN_ROWS", min_rows)
        return _replay(seed, ticks, n, movers, batch_every, metrics)


def _replay(seed, ticks, n, movers, batch_every, metrics):
    rng = random.Random(seed)
    positions = {
        f"o{i}": Point(rng.random(), rng.random()) for i in range(n)
    }
    server = DatabaseServer(
        lambda oid: positions[oid],
        ServerConfig(grid_m=10, max_speed=0.05),
        metrics=metrics,
    )
    server.load_objects(positions.items())
    queries = []
    for i in range(8):
        if i % 2:
            x, y = rng.random() * 0.85, rng.random() * 0.85
            queries.append(RangeQuery(Rect(x, y, x + 0.1, y + 0.1), f"r{i}"))
        else:
            queries.append(
                KNNQuery(Point(rng.random(), rng.random()), 3, query_id=f"k{i}")
            )
        server.register_query(queries[-1], time=0.0)
    log = []
    t = 0.0
    for tick in range(ticks):
        t += 1.0
        batch = []
        for oid in rng.sample(sorted(positions), movers):
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.gauss(0, 0.01), 0.0), 1.0),
                min(max(p.y + rng.gauss(0, 0.01), 0.0), 1.0),
            )
            batch.append((oid, positions[oid]))
        if tick % batch_every == 0:
            out = server.handle_location_updates(batch, time=t)
            log.append((
                sorted(out.regions.items()),
                [(c.query_id, c.old, c.new) for c in out.changes],
            ))
        else:
            for oid, new in batch:
                log.append(
                    _outcome_key(server.handle_location_update(oid, new, t))
                )
        if tick == 80:  # mid-simulation churn: deregistration...
            server.deregister_query(queries[0])
        if tick == 120:  # ...and late registration invalidate live stamps
            late = KNNQuery(Point(0.4, 0.4), 4, query_id="k-late")
            queries.append(late)
            server.register_query(late, time=t)
    server.validate()
    snapshots = {q.query_id: q.result_snapshot() for q in queries[1:]}
    return log, snapshots, _stats_tuple(server)


class TestBackendEquivalence:
    """NumPy and scalar paths are bit-identical."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_numpy_run_identical_to_python(self, seed):
        vectorised = _drive(VECTOR, seed)
        scalar = _drive(SCALAR, seed)
        assert vectorised[0] == scalar[0]    # every outcome, every message
        assert vectorised[1] == scalar[1]    # final result snapshots
        assert vectorised[2] == scalar[2]    # ServerStats minus cpu_seconds

    def test_numpy_backend_actually_vectorises(self):
        registry = MetricsRegistry()
        _drive(VECTOR, 7, ticks=60, metrics=registry)
        counters = registry.to_dict()["counters"]
        assert counters.get("kernels.batch_calls", 0) > 0
        assert counters.get("kernels.rows_scanned", 0) > 0

    def test_python_backend_never_vectorises(self):
        registry = MetricsRegistry()
        _drive(SCALAR, 7, ticks=60, metrics=registry)
        counters = registry.to_dict()["counters"]
        assert counters.get("kernels.batch_calls", 0) == 0
        assert counters.get("kernels.fallback_calls", 0) > 0

    def test_index_gauges_exported(self):
        registry = MetricsRegistry()
        _drive(VECTOR, 7, ticks=20, metrics=registry)
        gauges = registry.to_dict()["gauges"]
        # No object is degraded, so no region lies outside its home cell.
        assert gauges["object_index.wide"] == 0
        # Total (query, cell) slots: 8 queries minus one deregistered,
        # each covering at least one cell.
        assert gauges["grid.cells_indexed"] >= 7
