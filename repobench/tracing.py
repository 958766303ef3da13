"""In-memory span tracer for the benchmark's traced (per-layer) run.

:meth:`Tracer.installed` wraps each engine layer's public functions at
the sites where the engine imports them (``repro.core.cyclo`` and
``repro.core.pipeline``) plus the comm-cost cache and link-occupancy
constructors, and restores every original on exit.  Spans stay in
memory as ``(name, start, end, parent, phase)`` tuples; a layer's self
time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["Tracer", "layer_times"]


class Tracer:
    """Record nested spans; single-threaded like the engine."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, phase)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, phase: str = "") -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, phase))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, phase)

    def wrap(
        self, name: str, fn: Callable, phase: Callable[..., str] | None = None
    ) -> Callable:
        """``fn`` recording a ``name`` span per call; ``phase(*args,
        **kwargs)`` labels the span."""

        def wrapper(*args, **kwargs):
            with self.span(name, phase(*args, **kwargs) if phase else ""):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the layer boundaries for the duration of the block."""
        from repro.arch.cache import CommCostCache
        from repro.arch.contention import LinkOccupancy
        from repro.core import cyclo, pipeline

        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, value) -> None:
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for attr, name in (
            ("start_up_schedule", "startup"),
            ("rotate_schedule", "rotation"),
            ("undo_rotation", "rotation"),
            ("remap_nodes", "remapping"),
            ("PSLTracker", "psl.init"),
        ):
            patch(cyclo, attr, self.wrap(name, getattr(cyclo, attr)))
        patch(
            pipeline,
            "cyclo_compact",
            self.wrap(
                "cyclo",
                pipeline.cyclo_compact,
                lambda *a, **kw: "aware" if kw.get("comm") else "blind",
            ),
        )
        patch(pipeline, "contended_cost", self.wrap("bill", pipeline.contended_cost))
        for cls, attr, name in (
            (CommCostCache, "for_graph", "cache.build"),
            (LinkOccupancy, "from_assignment", "freeze"),
        ):
            func = cls.__dict__[attr].__func__
            patch(cls, attr, classmethod(self.wrap(name, func)))
        # lazy row materialisation is where cache build time goes
        patch(
            CommCostCache,
            "_build_row",
            self.wrap("cache.row", CommCostCache.__dict__["_build_row"]),
        )
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def layer_times(
    spans: list[tuple[str, float, float, int, str]], scale: list[float] | None = None
) -> dict[str, dict[str, float]]:
    """Per ``name`` (and ``name:phase``): call count, inclusive and
    self seconds.  ``scale[i]`` multiplies span ``i``'s durations (the
    host normalisation of the batch it ran in)."""
    child_time = [0.0] * len(spans)
    durations = []
    for i, (_, start, end, parent, _) in enumerate(spans):
        dur = (end - start) * (scale[i] if scale else 1.0)
        durations.append(dur)
        if parent >= 0:
            child_time[parent] += dur
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    )
    for i, (name, _, _, _, phase) in enumerate(spans):
        keys = (name, f"{name}:{phase}") if phase else (name,)
        for key in keys:
            row = out[key]
            row["calls"] += 1
            row["incl_s"] += durations[i]
            row["self_s"] += durations[i] - child_time[i]
    return dict(out)
