"""Outside-in layer tracing for the benchmark.

:class:`Tracer` wraps the public entry points of each ``repro`` layer —
on the name the caller actually resolves — and records one span per
call: name, start, end, parent span and run id. Spans live in compact
arrays in memory and are written out once, at the end, by
:meth:`Tracer.save`. Per-name call counts, inclusive seconds and self
seconds (inclusive minus the part covered by child spans) are kept as
the calls happen, so the per-layer table needs no second pass.

Nothing here edits the program: :meth:`Tracer.install` replaces
attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: (layer span name, owner object path, attribute) for every wrapped
#: entry point below the service loop. Functions imported by name are
#: wrapped in the importing module, where the caller resolves them.
LAYER_POINTS: tuple[tuple[str, str, str], ...] = (
    ("service.simulate.run", "repro.service.simulate:ServiceSimulator", "run"),
    ("service.policies.plan_for", "repro.service.simulate", "plan_for"),
    ("netsim.multi.submit", "repro.netsim.multi:MultiTransferSimulator", "submit"),
    ("netsim.multi.run_until", "repro.netsim.multi:MultiTransferSimulator", "run_until"),
    ("netsim.engine.prepare_step", "repro.netsim.engine:TransferEngine", "prepare_step"),
    ("netsim.engine.advance_prepared", "repro.netsim.engine:TransferEngine", "advance_prepared"),
    ("netsim.engine.stable_steps", "repro.netsim.engine:TransferEngine", "stable_steps"),
    ("netsim.engine.count_stable_steps", "repro.netsim.engine:TransferEngine", "count_stable_steps"),
    ("topo.alloc.refill", "repro.netsim.multi", "refill"),
    ("topo.placement.place", "repro.topo.placement:Placer", "place"),
)

#: The fleet dispatcher's own entry points. These are the only ones
#: installed for a process-pool day: shard work runs in the workers.
FLEET_POINTS: tuple[tuple[str, str, str], ...] = (
    ("service.fleet.run", "repro.service.fleet:FleetSimulator", "run"),
    ("service.fleet.route_requests", "repro.service.fleet", "route_requests"),
)

#: ``MultiTransferSimulator`` round counters read around each
#: ``run_until`` call.
ROUND_COUNTERS = ("macro_rounds", "fixed_rounds", "macro_stepped_dts")


def _resolve(path: str) -> Any:
    import importlib

    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """Span recorder for one traced day (``run_id`` tags its spans)."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.calls: list[int] = []
        self.inclusive_s: list[float] = []
        self.self_s: list[float] = []
        #: Open spans: [span index, seconds covered by children].
        self._stack: list[list] = []
        self.rounds = dict.fromkeys(ROUND_COUNTERS, 0)
        self._installed: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, *, counters: bool = False) -> Callable:
        """``fn`` recording a span named ``name`` per call. With
        ``counters`` the first argument is a ``MultiTransferSimulator``
        whose round counters are accumulated across the call."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        calls, inclusive_s, self_s = self.calls, self.inclusive_s, self.self_s
        rounds = self.rounds

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            if counters:
                sim = args[0]
                before = [getattr(sim, c) for c in ROUND_COUNTERS]
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                duration = end - start
                calls[nid] += 1
                inclusive_s[nid] += duration
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if counters:
                    for c, b in zip(ROUND_COUNTERS, before):
                        rounds[c] += getattr(sim, c) - b

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        setattr(
            owner, attr,
            self.wrap(name, original, counters=(name == "netsim.multi.run_until")),
        )
        self._installed.append((owner, attr, original))

    def install(self, points) -> None:
        """Wrap every ``(name, owner path, attribute)`` point."""
        for name, owner_path, attr in points:
            self.patch(_resolve(owner_path), attr, name)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict[str, dict[str, float]]:
        """``{name: {calls, s, self_s}}`` for every wrapped name."""
        return {
            name: {
                "calls": self.calls[i],
                "s": self.inclusive_s[i],
                "self_s": self.self_s[i],
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path, meta: dict) -> None:
        """Write the spans (times relative to the first span) and
        ``meta`` as one JSON document."""
        origin = self.starts[0] if len(self.starts) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "run_id": self.run_id,
                    "names": self.names,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [n, round(s - origin, 7), round(e - origin, 7), p]
                        for n, s, e, p in zip(
                            self.name_ids, self.starts, self.ends, self.parents
                        )
                    ],
                },
                fh,
                separators=(",", ":"),
            )
