"""Per-process warm state for task-based stages."""

from __future__ import annotations

from typing import Any, Callable

_SLOTS: dict[str, tuple[Any, Any]] = {}


def worker_state(slot: str, key, build: Callable[[], Any]):
    """The value held in ``slot``, built by ``build()`` on first use or
    when ``key`` differs (``!=``) from the key it was built for.

    This is the package's one reuse rule for expensive per-process state
    (broadcast lookups, scorers, model-like extractors): Ray reuses task
    worker processes across tasks and across Dataset executions, so a
    module-level slot keeps the warm state of an actor without an actor
    pool's spawn latency, its concurrency cap, or an actor holding a CPU
    the read tasks need. Each slot holds one value; a key change drops
    the old value before building the new one, so a worker never holds
    more than one generation per slot. A query must therefore use one
    key per slot, or its tasks rebuild on every switch.
    """
    held = _SLOTS.get(slot)
    if held is None or held[0] != key:
        _SLOTS.pop(slot, None)
        held = _SLOTS[slot] = (key, build())
    return held[1]
