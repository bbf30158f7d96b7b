"""Property tests: the object table × evictions and shard migrations.

The server keeps one row per object in its object table: the held
position (the ``x`` and ``y`` columns, ``p_lst`` of the row view) and
that position's grid cell ``cell`` (the grid's interned id).  Every site
that moves an object writes both, so the cell must stay
``GridIndex.cell_of(p_lst)`` through any interleaving of adds,
moves and evictions — including the probe ingests that ``evict_object``
triggers while refilling kNN results that referenced the evicted object
— and through shard migrations, which evict an object on one shard and
add it on another.  The shard's migration export (``residents``) reads
those cells, so it must equal a brute-force scan of the table.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.obs import MetricsRegistry
from repro.sharding import ShardedServer
from repro.sharding.backend import ShardBackend, query_spec

OIDS = [f"o{i}" for i in range(8)]

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# kind: 0 = add (or move if present), 1 = update (noop if absent),
#       2 = evict (noop if absent)
ops_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=len(OIDS) - 1),
              unit, unit),
    min_size=1, max_size=50,
)


def _check_table(server: DatabaseServer) -> None:
    """Each object's cell is its held position's, and the index agrees."""
    grid = server.query_index
    objects = server._objects
    assert len(server.object_index) == len(objects)
    for oid, state in objects.items():
        assert state.cell is grid.cell_of(state.p_lst)
        assert server.positions.get(oid) == (state.p_lst.x, state.p_lst.y)


def _brute_force_rows(server: DatabaseServer, cells=None) -> list:
    """The migration export by a scan: ``(oid, x, y)`` in (cell, id) order."""
    grid = server.query_index
    held = [
        (grid.cell_of(state.p_lst), repr(oid), oid, state.p_lst)
        for oid, state in server._objects.items()
    ]
    return [
        (oid, p.x, p.y)
        for cell, _, oid, p in sorted(held)
        if cells is None or cell in cells
    ]


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy)
def test_store_mirrors_object_table_through_evictions(ops):
    live: dict[str, Point] = {}
    server = DatabaseServer(
        lambda oid: live[oid], ServerConfig(grid_m=4)
    )
    # Real queries make evictions do repair work: a kNN refill probes
    # surviving objects, whose positions re-ingest into the table.
    server.register_query(
        RangeQuery(Rect(0.2, 0.2, 0.8, 0.8), query_id="r0"), time=0.0
    )
    server.register_query(
        KNNQuery(Point(0.5, 0.5), 2, query_id="k0"), time=0.0
    )

    clock = 0.0
    for kind, idx, x, y in ops:
        clock += 1.0
        oid = OIDS[idx]
        p = Point(x, y)
        if kind == 0:
            live[oid] = p
            if oid in server._objects:
                server.handle_location_update(oid, p, time=clock)
            else:
                server.add_object(oid, p, time=clock)
        elif kind == 1 and oid in server._objects:
            live[oid] = p
            server.handle_location_update(oid, p, time=clock)
        elif kind == 2 and oid in server._objects:
            server.evict_object(oid, time=clock)
            live.pop(oid, None)
        _check_table(server)
        assert set(server._objects) == set(live)
        for oid, p in live.items():
            assert server._objects[oid].p_lst == p

    server.validate()


def test_evicting_unknown_object_raises():
    server = DatabaseServer(lambda oid: Point(0.0, 0.0), ServerConfig())
    with pytest.raises(KeyError):
        server.evict_object("ghost", time=0.0)


# ----------------------------------------------------------------------
# Held cells across shard migration (evict on one shard, re-add on
# another).  A migration is exactly evict-from-home + add-on-target; the
# cells and the migration export of *both* shards must track a reference
# model through any interleaving.
# ----------------------------------------------------------------------

GRID_M = 4
CELL_W = 1.0 / GRID_M


def _model_cell(x: float, y: float) -> tuple[int, int]:
    """``GridIndex.cell_of`` arithmetic over the unit space."""
    hi = GRID_M - 1
    return (
        min(max(int(x / CELL_W), 0), hi),
        min(max(int(y / CELL_W), 0), hi),
    )


# op: (kind, oid index, x, y, target shard) with
# kind 0 = add/move on the home shard, 1 = migrate home -> target
# (evict + re-add, the shard-migration shape), 2 = evict.
migration_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=len(OIDS) - 1),
              unit, unit,
              st.integers(min_value=0, max_value=1)),
    min_size=1, max_size=60,
)
cell_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=GRID_M - 1),
              st.integers(min_value=0, max_value=GRID_M - 1)),
    max_size=GRID_M * GRID_M,
)


@settings(max_examples=60, deadline=None)
@given(ops=migration_ops, asked=cell_lists)
def test_migration_preserves_cell_columns_and_generations(ops, asked):
    live: dict[str, Point] = {}
    config = ServerConfig(grid_m=GRID_M)
    shards = tuple(
        ShardBackend(s, config, lambda oid: live[oid]) for s in (0, 1)
    )
    for shard in shards:
        # A query makes evictions repair results (and probe) on each side.
        shard.register(
            query_spec(KNNQuery(Point(0.5, 0.5), 2, query_id="k0")), 0.0
        )
    home: dict = {}  # oid -> shard holding it

    clock = 0.0
    for kind, idx, x, y, target in ops:
        clock += 1.0
        oid = OIDS[idx]
        p = Point(x, y)
        s = home.get(oid)
        if kind == 0 or s is None:
            live[oid] = p
            if s is None:
                home[oid] = s = target
                shards[s].server.add_object(oid, p, time=clock)
            else:
                shards[s].server.handle_location_update(oid, p, time=clock)
        elif kind == 1:
            if s == target:
                target = 1 - target
            shards[s].server.evict_object(oid, time=clock)
            live[oid] = p
            shards[target].server.add_object(oid, p, time=clock)
            home[oid] = target
        else:
            shards[s].server.evict_object(oid, time=clock)
            del home[oid]
            live.pop(oid)
        for s, shard in enumerate(shards):
            objects = shard.server._objects
            _check_table(shard.server)
            expected = {o: live[o] for o, h in home.items() if h == s}
            assert {o: state.p_lst for o, state in objects.items()} == expected
            for o, q in expected.items():
                assert objects[o].cell == _model_cell(q.x, q.y)
            rows = shard.residents(None)["rows"]
            assert rows == _brute_force_rows(shard.server)
            # Asked cells may repeat, come unordered, or hold no one.
            assert shard.residents(asked)["rows"] == _brute_force_rows(
                shard.server, set(asked)
            )
    for shard in shards:
        shard.validate()


def _check_cell_consistency(backend: ShardBackend) -> set:
    """Every object's cell is its held position's; the export agrees."""
    _check_table(backend.server)
    rows = backend.residents(None)["rows"]
    assert rows == _brute_force_rows(backend.server)
    return {oid for oid, _, _ in rows}


@settings(max_examples=25, deadline=None)
@given(
    moves=st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(OIDS) - 1),
                  unit, unit),
        min_size=1, max_size=30,
    )
)
def test_sharded_migrations_keep_cell_residency_exact(moves):
    live = {oid: Point(0.5, 0.5) for oid in OIDS}
    registry = MetricsRegistry()
    cluster = ShardedServer(
        lambda oid: live[oid],
        ServerConfig(grid_m=GRID_M),
        n_shards=2,
        metrics=registry,
    )
    cluster.load_objects(live.items())
    cluster.register_query(
        KNNQuery(Point(0.5, 0.5), 2, query_id="k0"), time=0.0
    )

    migrated = 0
    clock = 0.0
    for idx, x, y in moves:
        clock += 1.0
        oid = OIDS[idx]
        before = cluster.shard_of_object(oid)
        live[oid] = Point(x, y)
        cluster.handle_location_update(oid, live[oid], time=clock)
        if cluster.shard_of_object(oid) != before:
            migrated += 1
        held = [
            _check_cell_consistency(shard.backend)
            for shard in cluster._shards
        ]
        # Each object is held by exactly one shard.
        assert not held[0] & held[1]
        assert held[0] | held[1] == set(OIDS)

    counters = registry.to_dict()["counters"]
    assert counters.get("shard.migrations", 0) == migrated
    cluster.validate()
