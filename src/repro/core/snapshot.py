"""Snapshot / restore of the monitoring server's state.

A monitoring server is long-running; being able to persist its view —
object safe regions, query results, quarantine radii — and resume after a
restart without re-probing the whole fleet is table stakes for a real
deployment.  The snapshot is plain JSON: every value it stores is either
a primitive, a point, or a rectangle.

Restoring reconstructs the object index (over the stored safe regions),
the grid query index, and the per-object state; the restored server
continues exactly where the old one stopped, as the round-trip tests
assert.

Only the built-in query types (:class:`RangeQuery`, :class:`KNNQuery`)
are serialised; extension queries should be re-registered by the
application after restore (they may hold application references).

Format history:

* **1** — objects, queries, core config.
* **2** — adds the server clock, the degraded-object set, and the
  fault-handling config fields (``probe_timeout`` / ``probe_retries`` /
  ``probe_budget`` / ``on_unknown_object`` / ``degraded_max_speed``).
  Version-1 snapshots still load: the new fields default to a healthy,
  faults-off server.

For crash recovery, :func:`replay_updates` feeds a flight-recorder
JSONL tail (``update`` events after the snapshot time) back through
``handle_location_update``, catching the restored server up to the
moment of the crash (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import json
from array import array
from typing import IO, Hashable

from repro.core.queries import KNNQuery, RangeQuery
from repro.core.server import DatabaseServer, ServerConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect

ObjectId = Hashable

FORMAT_VERSION = 2


def _rect_to_list(rect: Rect) -> list[float]:
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def _rect_from_list(values) -> Rect:
    return Rect(*values)


def snapshot_server(server: DatabaseServer) -> dict:
    """Serialise a server's complete monitoring state to a JSON-able dict."""
    queries = []
    for query in sorted(server.queries(), key=lambda q: q.query_id):
        if isinstance(query, RangeQuery):
            queries.append(
                {
                    "type": "range",
                    "query_id": query.query_id,
                    "rect": _rect_to_list(query.rect),
                    "results": sorted(query.results, key=repr),
                }
            )
        elif isinstance(query, KNNQuery):
            queries.append(
                {
                    "type": "knn",
                    "query_id": query.query_id,
                    "center": [query.center.x, query.center.y],
                    "k": query.k,
                    "order_sensitive": query.order_sensitive,
                    "results": list(query.results),
                    "radius": query.radius,
                }
            )
        else:
            raise TypeError(
                f"cannot snapshot extension query {type(query).__name__}; "
                "re-register it after restore"
            )
    table = server._objects
    objects = {}
    for oid, row in sorted(table.row_items(), key=lambda item: repr(item[0])):
        objects[json.dumps(oid)] = {
            "safe_region": _rect_to_list(table.region[row]),
            "p_lst": [table.x[row], table.y[row]],
            "last_update_time": table.t[row],
        }
    degraded = {
        json.dumps(oid): entered
        for oid, entered in sorted(
            server.degraded_objects().items(), key=lambda kv: repr(kv[0])
        )
    }
    return {
        "version": FORMAT_VERSION,
        "time": server.clock,
        "config": {
            "grid_m": server.config.grid_m,
            "space": _rect_to_list(server.config.space),
            "max_speed": server.config.max_speed,
            "reachability_pushes": server.config.reachability_pushes,
            "steadiness": server.config.steadiness,
            "batch_range_regions": server.config.batch_range_regions,
            "probe_timeout": server.config.probe_timeout,
            "probe_retries": server.config.probe_retries,
            "probe_budget": server.config.probe_budget,
            "on_unknown_object": server.config.on_unknown_object,
            "degraded_max_speed": server.config.degraded_max_speed,
        },
        "queries": queries,
        "objects": objects,
        "degraded": degraded,
    }


def config_from_payload(config_data: dict) -> ServerConfig:
    """Rebuild a :class:`ServerConfig` from a snapshot's ``config`` block.

    Shared by the single-server and sharded (``repro.sharding.snapshot``)
    restore paths so version-compat defaults never fork.
    """
    config_data = dict(config_data)
    if not isinstance(config_data["space"], Rect):
        config_data["space"] = _rect_from_list(config_data["space"])
    # Version-1 snapshots predate the fault-handling fields entirely.
    config_data.setdefault("probe_timeout", 0.05)
    config_data.setdefault("probe_retries", 2)
    config_data.setdefault("probe_budget", None)
    config_data.setdefault("on_unknown_object", "raise")
    config_data.setdefault("degraded_max_speed", None)
    # Written by snapshots older than the relief pass's removal, by
    # snapshots older than the cell object index (the R*-tree fanout),
    # and by snapshots older than the kernel switches' removal.
    config_data.pop("anti_storm_relief", None)
    config_data.pop("index_max_entries", None)
    config_data.pop("kernel_backend", None)
    config_data.pop("kernel_min_rows", None)
    return ServerConfig(**config_data)


def restore_server(payload: dict, position_oracle) -> DatabaseServer:
    """Rebuild a server from a snapshot dict and a fresh probe channel."""
    version = payload.get("version")
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported snapshot version: {version!r}")
    server = DatabaseServer(
        position_oracle=position_oracle,
        config=config_from_payload(payload["config"]),
    )

    # One bulk pass: the table's columns, then the index over them.
    entries = payload["objects"]
    oids = [json.loads(key) for key in entries]
    regions = [_rect_from_list(data["safe_region"]) for data in entries.values()]
    xs = array("d", [data["p_lst"][0] for data in entries.values()])
    ys = array("d", [data["p_lst"][1] for data in entries.values()])
    table = server._objects
    first = table.load(
        oids, regions, xs, ys, server.query_index.cells_of_xy(xs, ys), 0.0
    )
    table.t[first:] = [data["last_update_time"] for data in entries.values()]
    server.object_index.load(zip(oids, regions))

    for entry in payload["queries"]:
        if entry["type"] == "range":
            query = RangeQuery(
                _rect_from_list(entry["rect"]), query_id=entry["query_id"]
            )
            query.results = set(entry["results"])
        elif entry["type"] == "knn":
            query = KNNQuery(
                Point(*entry["center"]),
                entry["k"],
                order_sensitive=entry["order_sensitive"],
                query_id=entry["query_id"],
            )
            query.results = list(entry["results"])
            query.radius = entry["radius"]
        else:
            raise ValueError(f"unknown query type {entry['type']!r}")
        server.query_index.insert(query)

    server._clock = payload.get("time", 0.0)
    for key, entered in payload.get("degraded", {}).items():
        oid = json.loads(key)
        if oid in server._objects:
            server._degraded[oid] = entered
    if server._degraded:
        server._g_degraded.set(len(server._degraded))
    return server


def replay_updates(
    server: DatabaseServer, events: list, after: float | None = None
) -> tuple[int, int]:
    """Catch a restored server up from a flight-recorder tail.

    Feeds every ``update`` event in ``events`` (dicts, as read by
    :func:`repro.obs.events.read_events`) with ``t >= after`` back
    through ``handle_location_update``; ``after`` defaults to the
    restored server's snapshot clock, so the natural call is
    ``replay_updates(server, read_events(recorder_path))``.

    Returns ``(replayed, skipped)``; a replayed stream may legitimately
    skip events — objects deregistered after the snapshot, or oids the
    snapshot never knew (registered and dropped inside the tail).
    JSON round-tripping turns tuple oids into lists, so list oids are
    converted back to tuples before lookup.
    """
    cutoff = server.clock if after is None else after
    replayed = 0
    skipped = 0
    for event in events:
        if event.get("kind") != "update":
            continue
        t = event.get("t", 0.0)
        if t < cutoff:
            continue
        oid = event.get("oid")
        if isinstance(oid, list):
            oid = tuple(oid)
        pos = event.get("pos")
        if pos is None or oid not in server._objects:
            skipped += 1
            continue
        server.handle_location_update(oid, Point(pos[0], pos[1]), t)
        replayed += 1
    return replayed, skipped


def dump_server(server: DatabaseServer, handle: IO[str]) -> None:
    """Write a snapshot as JSON to an open text handle."""
    json.dump(snapshot_server(server), handle)


def load_server(handle: IO[str], position_oracle) -> DatabaseServer:
    """Read a snapshot from an open text handle and rebuild the server."""
    return restore_server(json.load(handle), position_oracle)
