"""Tick-phase profiling: where each update tick's time actually goes.

The metrics registry answers *how much* work each subsystem did; spans
answer *how long* named phases took when metrics are on.  This module
closes the remaining gap — attributed cost — with three pieces:

* :class:`TickProfiler` — a self-time accountant.  The server opens
  one *tick* per ``handle_location_updates`` batch (or per lone
  report), and ``Tracer.phase`` times each site of :data:`PHASES`
  inside it, adding the site's total to a profile slot.  ``tick_end``
  carves each total out of its parent's self time, so *the phase times
  sum to the tick wall time by construction*; the root's own self-time
  is the orchestration residual (per-report dict bookkeeping, fast-path
  commits) that no site claims.
* Hotspot tables — per-query, per-cell, and per-object attribution
  (reevaluation count, candidate rows, attributed seconds) plus a
  cell-occupancy skew summary reusing the ``shard.objects.imbalance``
  formula, so the rebalancing roadmap item reads the same signal here.
* Renderers — a flamegraph-folded text export (semicolon paths,
  integer microseconds) and a JSON phase-budget report, merged across
  shard workers by :func:`merge_profiles`.

The zero-overhead contract: instrumented code holds
:data:`NULL_PROFILER` by default and every hook checks one attribute
before doing any work, so the disabled path costs a single attribute
test and no ``perf_counter`` calls.  A ``max_ticks`` budget turns a
profiler into a sampling session: after N completed ticks it disables
itself, freezing the capture.
"""

from __future__ import annotations

from time import perf_counter, process_time

#: Cap on hotspot rows shipped per shard summary — enough for any sane
#: ``--top-k`` after a cross-shard merge, small enough to pickle cheaply.
_SHIP_K = 64


#: The one site table: every timed server phase, keyed by span name, with
#: its tick-profile path (``None``: ``probe`` and ``shrink`` stay in
#: their parent's self time) and its parent phase (``None``: the tick
#: root).  Parents come before their children.  ``Tracer.phase`` times a
#: site once and feeds both the ``span.<path>.seconds`` histogram and the
#: profile slot; ``TickProfiler.tick_end`` folds the slots along the
#: parent links.
PHASES: dict[str, tuple[str | None, str | None]] = {
    "ingest": ("tick;ingest", None),
    "reevaluate": ("tick;ingest;reevaluate", "ingest"),
    "probe": (None, "reevaluate"),
    "shrink": (None, "reevaluate"),
    "location_manager": ("tick;report.scatter", None),
    "safe_region": ("tick;report.scatter;safe_region", "location_manager"),
}

#: ``(path, parent path)`` of each profiled site, in fold order.
_FOLD = tuple(
    (path, PHASES[parent][0] if parent else "tick")
    for path, parent in PHASES.values()
    if path is not None
)


class NullProfiler:
    """Shared do-nothing profiler; the default everywhere.

    Mirrors :class:`~repro.obs.registry.NullRegistry`: one instance,
    ``enabled`` is False, and every method is an inert stub so call
    sites that skip the ``enabled`` check still cannot crash.
    """

    __slots__ = ()
    enabled = False

    tick_open = False

    def tick_begin(self) -> bool:
        return False

    def tick_end(self, reports: int = 0) -> None:
        pass

    def note_query(self, qid, seconds: float, reevals: int = 1) -> None:
        pass

    def note_report(self, oid, cell, rows: int, affected: int) -> None:
        pass

    def to_dict(self, top_k: int = 10) -> dict:
        return empty_profile()


NULL_PROFILER = NullProfiler()


class TickProfiler:
    """Self-time accountant for server ticks.

    Phase paths are semicolon-joined from the root (``tick;reevaluate``)
    so the accumulated wall table doubles as collapsed-stack output.
    Phases timed outside an open tick record nothing — bootstrap work
    (object loads, query registration) never skews a tick budget.
    """

    __slots__ = (
        "enabled", "max_ticks", "ticks", "reports",
        "wall_seconds", "cpu_seconds", "phase_wall", "tick_phases",
        "query_seconds", "query_reevals", "cell_rows", "cell_reports",
        "object_reports", "_tick_start", "_cpu_start", "tick_open",
    )

    def __init__(self, max_ticks: int | None = None) -> None:
        self.enabled = True
        self.max_ticks = max_ticks
        self.ticks = 0
        self.reports = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        #: path -> accumulated *self* time (children excluded).
        self.phase_wall: dict[str, float] = {}
        #: path -> the open tick's *total* time per profiled site, fed
        #: by ``Tracer.phase`` and folded into :attr:`phase_wall` (then
        #: zeroed) by :meth:`tick_end`.
        self.tick_phases = {path: 0.0 for path, _ in _FOLD}
        self.query_seconds: dict[str, float] = {}
        self.query_reevals: dict[str, int] = {}
        self.cell_rows: dict = {}
        self.cell_reports: dict = {}
        self.object_reports: dict = {}
        self._tick_start = 0.0
        self._cpu_start = 0.0
        self.tick_open = False

    # -- tick lifecycle ------------------------------------------------
    def tick_begin(self) -> bool:
        """Open a tick; returns False (no-op) if one is already open.

        The boolean is the ownership token: only the caller that opened
        the tick closes it, so an outer batch wrapper and an inner
        per-update auto-root cannot double-count.
        """
        if not self.enabled or self.tick_open:
            return False
        self._tick_start = perf_counter()
        self._cpu_start = process_time()
        self.tick_open = True
        return True

    def tick_end(self, reports: int = 0) -> None:
        """Close the tick, billing each phase its self time.

        The sites ran inside the tick, so a site's total is carved out
        of its parent's (or the root's) self time: the phase sum stays
        exactly the tick wall.
        """
        if not self.tick_open:
            return
        elapsed = perf_counter() - self._tick_start
        wall = self.phase_wall
        wall["tick"] = wall.get("tick", 0.0) + elapsed
        totals = self.tick_phases
        for path, parent in _FOLD:
            total = totals[path]
            if total:
                totals[path] = 0.0
                wall[path] = wall.get(path, 0.0) + total
                wall[parent] = wall.get(parent, 0.0) - total
        self.tick_open = False
        self.wall_seconds += elapsed
        self.cpu_seconds += process_time() - self._cpu_start
        self.ticks += 1
        self.reports += reports
        if self.max_ticks is not None and self.ticks >= self.max_ticks:
            self.enabled = False  # sampling session complete

    # -- hotspot attribution -------------------------------------------
    def note_query(self, qid, seconds: float, reevals: int = 1) -> None:
        try:
            self.query_seconds[qid] += seconds
        except KeyError:
            self.query_seconds[qid] = seconds
        try:
            self.query_reevals[qid] += reevals
        except KeyError:
            self.query_reevals[qid] = reevals

    def note_report(self, oid, cell, rows: int, affected: int) -> None:
        """Attribute one report to its object (weighted by the queries
        it affected) and to its landing cell (with its candidate rows)."""
        weight = affected or 1
        try:
            self.object_reports[oid] += weight
        except KeyError:
            self.object_reports[oid] = weight
        if rows:
            try:
                self.cell_rows[cell] += rows
            except KeyError:
                self.cell_rows[cell] = rows
        try:
            self.cell_reports[cell] += 1
        except KeyError:
            self.cell_reports[cell] = 1

    # -- export --------------------------------------------------------
    def to_dict(self, top_k: int = 10) -> dict:
        """Picklable summary: phases, hotspot top-k, tick totals."""
        k = max(top_k, _SHIP_K)
        queries = [
            {
                "id": qid,
                "seconds": seconds,
                "reevaluations": self.query_reevals.get(qid, 0),
            }
            for qid, seconds in sorted(
                self.query_seconds.items(), key=lambda kv: -kv[1]
            )[:k]
        ]
        cells = {}
        for cell, rows in self.cell_rows.items():
            cells[cell] = [rows, 0]
        for cell, reports in self.cell_reports.items():
            cells.setdefault(cell, [0, 0])[1] = reports
        cell_rows = [
            {"id": _cell_key(cell), "rows": rows, "reports": reports}
            for cell, (rows, reports) in sorted(
                cells.items(), key=lambda kv: (-kv[1][0], -kv[1][1])
            )[:k]
        ]
        objects = [
            {"id": oid, "reports": reports}
            for oid, reports in sorted(
                self.object_reports.items(), key=lambda kv: -kv[1]
            )[:k]
        ]
        return {
            "ticks": self.ticks,
            "reports": self.reports,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "phases": dict(self.phase_wall),
            "hotspots": {
                "queries": queries,
                "cells": cell_rows,
                "objects": objects,
            },
        }


def _cell_key(cell) -> str:
    """A JSON-safe cell identifier (grid cells are coordinate tuples)."""
    if isinstance(cell, tuple):
        return ",".join(str(part) for part in cell)
    return str(cell)


def empty_profile() -> dict:
    """The shape :meth:`TickProfiler.to_dict` returns with no data."""
    return {
        "ticks": 0,
        "reports": 0,
        "wall_seconds": 0.0,
        "cpu_seconds": 0.0,
        "phases": {},
        "hotspots": {"queries": [], "cells": [], "objects": []},
    }


def occupancy_summary(counts) -> dict:
    """Cell-occupancy skew from a per-cell object-count iterable.

    ``imbalance`` is ``max * cells / objects`` — the exact
    ``shard.objects.imbalance`` gauge formula, so a profile's skew
    reading and the sharding rebalance signal cannot disagree.  1.0 is
    perfectly even; N means the fullest cell holds N× its fair share.
    """
    counts = [int(c) for c in counts if c]
    if not counts:
        return {
            "cells": 0, "objects": 0, "max": 0,
            "mean": 0.0, "imbalance": 0.0, "histogram": {},
        }
    total = sum(counts)
    top = max(counts)
    histogram: dict[str, int] = {}
    for count in counts:
        bound = 1
        while bound < count:
            bound *= 2
        key = f"le_{bound}"
        histogram[key] = histogram.get(key, 0) + 1
    histogram = dict(
        sorted(histogram.items(), key=lambda kv: int(kv[0][3:]))
    )
    return {
        "cells": len(counts),
        "objects": total,
        "max": top,
        "mean": total / len(counts),
        "imbalance": top * len(counts) / total,
        "histogram": histogram,
    }


def merge_profiles(summaries) -> dict:
    """Merge per-shard profile summaries into one cluster-wide view.

    Additive fields sum; hotspot rows merge by id then re-rank; the
    occupancy skew recombines exactly (cells partition across shards,
    so the global max/total are the max/sum of the shard figures).
    """
    merged = empty_profile()
    phases: dict[str, float] = {}
    queries: dict = {}
    cells: dict = {}
    objects: dict = {}
    occupancy: dict | None = None
    for summary in summaries:
        if not summary:
            continue
        merged["ticks"] += summary.get("ticks", 0)
        merged["reports"] += summary.get("reports", 0)
        merged["wall_seconds"] += summary.get("wall_seconds", 0.0)
        merged["cpu_seconds"] += summary.get("cpu_seconds", 0.0)
        for path, seconds in summary.get("phases", {}).items():
            phases[path] = phases.get(path, 0.0) + seconds
        hotspots = summary.get("hotspots", {})
        for row in hotspots.get("queries", ()):
            slot = queries.setdefault(
                row["id"], {"id": row["id"], "seconds": 0.0,
                            "reevaluations": 0}
            )
            slot["seconds"] += row["seconds"]
            slot["reevaluations"] += row["reevaluations"]
        for row in hotspots.get("cells", ()):
            slot = cells.setdefault(
                row["id"], {"id": row["id"], "rows": 0, "reports": 0}
            )
            slot["rows"] += row["rows"]
            slot["reports"] += row["reports"]
        for row in hotspots.get("objects", ()):
            slot = objects.setdefault(
                row["id"], {"id": row["id"], "reports": 0}
            )
            slot["reports"] += row["reports"]
        skew = summary.get("occupancy")
        if skew and skew.get("cells"):
            if occupancy is None:
                occupancy = {
                    "cells": 0, "objects": 0, "max": 0,
                    "mean": 0.0, "imbalance": 0.0, "histogram": {},
                }
            occupancy["cells"] += skew["cells"]
            occupancy["objects"] += skew["objects"]
            occupancy["max"] = max(occupancy["max"], skew["max"])
            for key, count in skew.get("histogram", {}).items():
                occupancy["histogram"][key] = (
                    occupancy["histogram"].get(key, 0) + count
                )
    merged["phases"] = phases
    merged["hotspots"] = {
        "queries": sorted(
            queries.values(), key=lambda r: -r["seconds"]
        )[:_SHIP_K],
        "cells": sorted(
            cells.values(), key=lambda r: (-r["rows"], -r["reports"])
        )[:_SHIP_K],
        "objects": sorted(
            objects.values(), key=lambda r: -r["reports"]
        )[:_SHIP_K],
    }
    if occupancy is not None:
        occupancy["mean"] = occupancy["objects"] / occupancy["cells"]
        occupancy["imbalance"] = (
            occupancy["max"] * occupancy["cells"] / occupancy["objects"]
            if occupancy["objects"] else 0.0
        )
        occupancy["histogram"] = dict(
            sorted(occupancy["histogram"].items(),
                   key=lambda kv: int(kv[0][3:]))
        )
        merged["occupancy"] = occupancy
    return merged


# ---------------------------------------------------------------------------
# Rendering


def _phase_label(path: str) -> str:
    """Human label for a phase path; the root's self-time is the residual."""
    if path == "tick":
        return "orchestration"
    return path.partition(";")[2]


def phase_budget(summary: dict) -> list[tuple[str, float, float]]:
    """``(label, seconds, share)`` rows, largest first.

    Shares are fractions of the summed phase time, which equals the
    captured tick wall time up to float error (self-time accounting).
    """
    phases = summary.get("phases", {})
    total = sum(phases.values()) or 1.0
    rows = [
        (_phase_label(path), seconds, seconds / total)
        for path, seconds in phases.items()
    ]
    rows.sort(key=lambda row: -row[1])
    return rows


def folded_lines(summary: dict) -> list[str]:
    """Collapsed-stack lines (``path value``), flamegraph.pl compatible.

    Values are integer microseconds of *self* time, the convention
    folded-stack consumers expect.
    """
    lines = []
    for path, seconds in sorted(summary.get("phases", {}).items()):
        lines.append(f"{path} {max(round(seconds * 1e6), 0)}")
    return lines


def render_profile(summary: dict, top_k: int = 10) -> str:
    """The ``repro profile`` report: phase budget + hotspot tables."""
    out = []
    ticks = summary.get("ticks", 0)
    wall = summary.get("wall_seconds", 0.0)
    cpu = summary.get("cpu_seconds", 0.0)
    out.append(
        f"profile: {ticks} ticks, {summary.get('reports', 0)} reports, "
        f"wall {wall:.6f}s, cpu {cpu:.6f}s"
    )
    out.append("")
    out.append("phase budget (self time):")
    out.append(f"  {'phase':<28} {'seconds':>12} {'share':>8}")
    for label, seconds, share in phase_budget(summary):
        out.append(f"  {label:<28} {seconds:>12.6f} {share:>7.1%}")
    hotspots = summary.get("hotspots", {})
    rows = hotspots.get("queries", [])[:top_k]
    if rows:
        out.append("")
        out.append(f"top queries by attributed time (k={top_k}):")
        out.append(
            f"  {'query':<16} {'seconds':>12} {'reevaluations':>14}"
        )
        for row in rows:
            out.append(
                f"  {str(row['id']):<16} {row['seconds']:>12.6f} "
                f"{row['reevaluations']:>14}"
            )
    rows = hotspots.get("cells", [])[:top_k]
    if rows:
        out.append("")
        out.append(f"top cells by candidate rows (k={top_k}):")
        out.append(f"  {'cell':<16} {'rows':>10} {'reports':>10}")
        for row in rows:
            out.append(
                f"  {str(row['id']):<16} {row['rows']:>10} "
                f"{row['reports']:>10}"
            )
    rows = hotspots.get("objects", [])[:top_k]
    if rows:
        out.append("")
        out.append(f"top objects by reports (k={top_k}):")
        out.append(f"  {'object':<16} {'reports':>10}")
        for row in rows:
            out.append(f"  {str(row['id']):<16} {row['reports']:>10}")
    occupancy = summary.get("occupancy")
    if occupancy and occupancy.get("cells"):
        out.append("")
        out.append(
            f"cell occupancy: {occupancy['objects']} objects in "
            f"{occupancy['cells']} cells, max {occupancy['max']}, "
            f"mean {occupancy['mean']:.2f}, "
            f"imbalance {occupancy['imbalance']:.2f}"
        )
        for key, count in occupancy.get("histogram", {}).items():
            out.append(f"  <= {key[3:]:>6} objects: {count} cells")
    return "\n".join(out)
