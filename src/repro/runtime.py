"""Interpreter-level helpers shared by every layer."""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def paused_gc():
    """Run a block with the cyclic garbage collector paused.

    For phases that only allocate long-lived state (start-up builds the
    whole population and drops nothing cyclic): every generational
    collection there walks a heap that only grows and frees nothing, at
    paper scale about half the phase's wall time (docs/PERFORMANCE.md).
    Reference counting still frees everything acyclic at once.

    Works as a ``with`` block or as a decorator (``@paused_gc()``).
    Restores the collector's prior state on exit, also on an exception;
    nesting is safe — an inner pause finds the collector off and leaves
    it off — and a caller who had it off to begin with keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
