"""Worker-process hosting of one :class:`~repro.sharding.backend.ShardBackend`.

Each shard runs in its own ``multiprocessing`` process, escaping the
GIL so per-shard compute genuinely overlaps on multi-core hosts.  The
coordinator talks to it over one duplex pipe with a tiny message
vocabulary:

* parent → child: ``("op", name, args)``, ``("close",)``, and
  ``("probe_result", ok, value)`` answering an in-flight probe (an
  ``(x, y)`` pair when ``ok``);
* child → parent: ``("probe", oid)`` — the shard needs an exact
  position, which only the coordinator's oracle can supply — then
  ``("done", payload)`` or ``("exc", type_name, message)``.

Payloads are the backend's return values; the hot ``batch`` op's are
built-in values only (:func:`repro.sharding.backend.encode_outcome`).

Probes are the only mid-op upcall: the paper's probe channel terminates
at the position oracle, which lives with the coordinator (in the
simulator it charges costs and synchronises the client).  Shard busy
time is process CPU time, so the pipe wait inside a probe round trip
is never billed as shard compute.

Workers are daemonic: an abandoned coordinator cannot leak processes.
"""

from __future__ import annotations

import gc
import multiprocessing as mp

from repro.core.server import ServerConfig
from repro.faults import ProbeTimeout
from repro.geometry.point import Point


def _spawn_context():
    """Prefer fork (cheap, inherits the import graph); fall back safely."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return mp.get_context("spawn")


def worker_main(conn, shard_id: int, config: ServerConfig,
                metrics_enabled: bool) -> None:
    """Child entry point: serve ops until ``close`` or EOF."""
    # Forked from inside the coordinator's paused start-up scope
    # (``repro.runtime.paused_gc``), so the collector arrives switched
    # off and would stay off for the worker's life.  Freezing first keeps
    # this process's full collections from traversing — and so
    # copy-on-write-touching — the heap inherited from the parent.
    gc.freeze()
    gc.enable()
    from repro.obs import MetricsRegistry
    from repro.sharding.backend import ShardBackend

    def probe(oid):
        conn.send(("probe", oid))
        kind, *rest = conn.recv()
        if kind != "probe_result":
            raise RuntimeError(f"protocol error: expected probe_result, got {kind}")
        ok, value = rest
        if ok:
            return Point(*value)
        if value == "timeout":
            raise ProbeTimeout(oid)
        raise RuntimeError(f"probe for {oid!r} failed: {value}")

    registry = MetricsRegistry() if metrics_enabled else None
    backend = ShardBackend(shard_id, config, probe, metrics=registry)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "close":
            conn.send(("done", None))
            return
        if message[0] != "op":
            conn.send(("exc", "RuntimeError",
                       f"protocol error: {message[0]!r}"))
            continue
        _, name, args = message
        try:
            if name == "restore":
                backend.restore(args[0], probe)
                result = None
            else:
                result = getattr(backend, name)(*args)
        except Exception as exc:  # marshalled to the coordinator
            conn.send(("exc", type(exc).__name__, str(exc)))
            continue
        conn.send(("done", result))


class WorkerShard:
    """Parent-side handle driving one worker process."""

    def __init__(self, shard_id: int, config: ServerConfig, oracle,
                 metrics_enabled: bool = False) -> None:
        self.shard_id = shard_id
        self._oracle = oracle
        ctx = _spawn_context()
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, shard_id, config, metrics_enabled),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self.process.start()
        child_conn.close()
        self.alive = True

    # -- plumbing ------------------------------------------------------
    def send_op(self, name: str, *args) -> None:
        self.conn.send(("op", name, args))

    def service(self) -> tuple | None:
        """Handle one child message; return the op result when done.

        Answers probe upcalls from the coordinator-held oracle inline;
        returns ``("done", payload)`` / raises on ``exc`` frames.
        """
        message = self.conn.recv()
        kind = message[0]
        if kind == "probe":
            oid = message[1]
            try:
                position = self._oracle(oid)
            except ProbeTimeout:
                self.conn.send(("probe_result", False, "timeout"))
            except Exception as exc:  # pragma: no cover - oracle bug
                self.conn.send(("probe_result", False, repr(exc)))
            else:
                self.conn.send(
                    ("probe_result", True, (position.x, position.y))
                )
            return None
        if kind == "exc":
            _, type_name, text = message
            if type_name == "KeyError":
                raise KeyError(text)
            raise RuntimeError(f"shard {self.shard_id} {type_name}: {text}")
        if kind == "done":
            return message
        raise RuntimeError(f"protocol error from shard: {kind!r}")

    def call(self, name: str, *args):
        """Synchronous op round trip (probes serviced inline)."""
        self.send_op(name, *args)
        while True:
            done = self.service()
            if done is not None:
                return done[1]

    def kill(self) -> None:
        """Hard-stop the worker — the failure-drill primitive."""
        if not self.alive:
            return
        self.alive = False
        self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()

    def close(self) -> None:
        """Graceful shutdown."""
        if not self.alive:
            return
        self.alive = False
        try:
            self.conn.send(("close",))
            self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()
