"""Fleet-scale sharded transfer service: many links, one report.

One :class:`~repro.service.simulate.ServiceSimulator` serves one
link's day well, but a provider operating at millions of jobs per day
runs a *fleet* of links. This module is the thin router in front of
it: a :class:`FleetSimulator` routes the day's requests across one
service shard per link (each an unmodified ``ServiceSimulator``),
executes the shards inline or behind a spawn-safe
:class:`ProcessPoolExecutor`, and merges the results. The merged
:class:`FleetReport` *is* a
:class:`~repro.service.simulate.ServiceReport` of every shard's jobs
together, plus per-shard rows, dispatch accounting and the merged
observer summaries (via :func:`repro.obs.metrics.merge_summaries`).

Routing is deterministic (load-balancer heuristics, no RNG):

* ``tenant-hash`` — ``crc32(tenant) mod shards``: tenant affinity, the
  classic consistent-dispatch default;
* ``least-loaded`` — argmin of weight-relative backlog bytes at
  dispatch time (psim's least-loaded job placement);
* ``weighted`` — tenant hash mapped through the cumulative shard
  weights, so capacity-weighted shards draw proportional traffic;
* ``round-robin`` — strict rotation.

All of them compose with **work stealing**: when the chosen shard's
weight-relative backlog exceeds ``steal_threshold`` times the fleet
mean (its admission queue has saturated relative to its fair share),
the job is re-routed to the least-loaded shard at dispatch time —
deterministic, and visible as ``work_stolen`` events.

Determinism contract: same requests, seed, shard count, routing and
policy knobs → the same routing decisions and bit-identical simulated
quantities in the :class:`FleetReport` (timestamps, admission
decisions, energy/cost/carbon). Wall-clock fields (``wall_s``,
``jobs_per_sec``) measure the real machine and are excluded from the
contract. A single-shard fleet reproduces ``ServiceSimulator``
(``fast=True``) exactly.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Sequence
from functools import cached_property
from typing import Any, Optional

import numpy as np

from repro import units
from repro.core.chunks import PartitionPolicy
from repro.obs.metrics import merge_summaries
from repro.obs.observer import Observer
from repro.service.requests import TransferRequest
from repro.service.scheduler import DeferralPolicy
from repro.service.simulate import (
    Intervention,
    JobResult,
    ServiceReport,
    ServiceSimulator,
    _fmt_pct,
)
from repro.service.tariff import JOULES_PER_KWH, TariffTrace
from repro.testbeds.specs import Testbed
from repro.units import Seconds

__all__ = [
    "ROUTING_POLICIES",
    "FleetReport",
    "FleetSimulator",
    "RoutingResult",
    "ShardResult",
    "ShardSpec",
    "route_requests",
]

#: Deterministic dispatch heuristics understood by :func:`route_requests`.
ROUTING_POLICIES = ("tenant-hash", "least-loaded", "weighted", "round-robin")


def _stable_hash(text: str) -> int:
    """A process-stable 32-bit hash (Python's ``hash`` is salted)."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# shard description and routing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One fleet shard: a named link/testbed with a routing weight.

    ``weight`` scales the shard's fair share under ``least-loaded`` /
    ``weighted`` routing and the work-stealing saturation test (a
    weight-2 shard is expected to carry twice the bytes).
    """

    name: str
    testbed: Testbed
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shard name must be non-empty")
        if not self.weight > 0:
            raise ValueError("shard weight must be > 0")


@dataclass(frozen=True)
class RoutingResult:
    """Deterministic dispatch outcome: per-shard request lists (in
    fleet submit order) plus stealing accounting."""

    buckets: tuple[tuple[TransferRequest, ...], ...]
    steals: int
    stolen_in: tuple[int, ...]
    stolen_out: tuple[int, ...]


def route_requests(
    requests: Sequence[TransferRequest],
    shards: Sequence[ShardSpec],
    *,
    routing: str = "tenant-hash",
    steal_threshold: Optional[float] = 4.0,
    observer: Optional[Observer] = None,
) -> RoutingResult:
    """Assign every request to a shard with the chosen heuristic.

    Requests are dispatched in ``(submit_time, name)`` order — the same
    canonical order :class:`~repro.service.simulate.ServiceSimulator`
    imposes — so the assignment is a pure function of the workload and
    the shard list, independent of caller ordering. Backlog is tracked
    in bytes (scaled by shard weight); with ``steal_threshold`` set, a
    chosen shard whose relative backlog exceeds ``threshold × fleet
    mean`` hands the job to the least-loaded shard instead (work
    stealing at dispatch time, so the decision is deterministic and
    reproducible from the same inputs).
    """
    if routing not in ROUTING_POLICIES:
        raise ValueError(
            f"unknown routing {routing!r}; known: {', '.join(ROUTING_POLICIES)}"
        )
    if steal_threshold is not None and steal_threshold < 1.0:
        raise ValueError("steal_threshold must be >= 1.0 (or None to disable)")
    if not shards:
        raise ValueError("at least one shard is required")
    names = [spec.name for spec in shards]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate shard names: {sorted(names)}")
    n = len(shards)
    weights = np.array([spec.weight for spec in shards], dtype=np.float64)
    total_weight = float(weights.sum())
    cumulative = np.cumsum(weights) / total_weight
    backlog = np.zeros(n, dtype=np.float64)
    buckets: list[list[TransferRequest]] = [[] for _ in range(n)]
    stolen_in = [0] * n
    stolen_out = [0] * n
    steals = 0
    rr = 0
    ordered = sorted(requests, key=lambda r: (r.submit_time, r.name))
    for request in ordered:
        if routing == "tenant-hash":
            chosen = _stable_hash(request.tenant) % n
        elif routing == "weighted":
            u = _stable_hash(request.tenant) / 2**32
            chosen = min(int(np.searchsorted(cumulative, u, side="right")), n - 1)
        elif routing == "round-robin":
            chosen = rr % n
            rr += 1
        else:  # least-loaded
            chosen = int(np.argmin(backlog / weights))
        if steal_threshold is not None and n > 1 and backlog[chosen] > 0.0:
            relative = backlog / weights
            mean = float(backlog.sum()) / total_weight
            if float(relative[chosen]) > steal_threshold * mean:
                target = int(np.argmin(relative))
                if target != chosen:
                    if observer is not None:
                        observer.work_stolen(
                            request.submit_time,
                            request.name,
                            shards[chosen].name,
                            shards[target].name,
                        )
                    stolen_out[chosen] += 1
                    stolen_in[target] += 1
                    steals += 1
                    chosen = target
        buckets[chosen].append(request)
        backlog[chosen] += request.total_bytes
        if observer is not None:
            observer.job_routed(
                request.submit_time, request.name, shards[chosen].name
            )
    return RoutingResult(
        buckets=tuple(tuple(bucket) for bucket in buckets),
        steals=steals,
        stolen_in=tuple(stolen_in),
        stolen_out=tuple(stolen_out),
    )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class ShardResult:
    """One shard's executed day plus its dispatch accounting.

    ``wall_s`` is real (machine) execution time of the shard's
    simulation — not simulated seconds — and is excluded from the
    determinism contract.
    """

    name: str
    weight: float
    routed_jobs: int
    stolen_in: int
    stolen_out: int
    wall_s: float
    report: ServiceReport


@dataclass(kw_only=True)
class FleetReport(ServiceReport):
    """The fleet's day as one service report over every shard's jobs.

    ``jobs`` are every shard's jobs in shard order, ``makespan_s`` is
    the slowest shard's (shards simulate the same day in parallel, so
    the fleet's day ends with its slowest shard), ``truncated`` is any
    shard's and ``testbed`` names the shards' distinct testbeds; all
    four are derived from ``shards`` at construction. Every inherited
    aggregate — totals, miss rate, slowdown and turnaround percentiles,
    queue wait, per-tenant rows — is therefore computed over the
    merged job list. Unlike a shard report, :meth:`to_dict` carries
    **no per-job rows** — at fleet scale (1M jobs) those belong in the
    shard reports, not in one JSON blob.
    """

    testbed: str = field(init=False, default="")
    jobs: list[JobResult] = field(init=False, default_factory=list)
    makespan_s: Seconds = field(init=False, default=0.0)
    truncated: bool = field(init=False, default=False)
    routing: str
    shards: list[ShardResult] = field(default_factory=list)
    work_steals: int = 0
    #: Real dispatch wall-clock for the whole fleet run (seconds); the
    #: basis of ``jobs_per_sec`` / ``jobs_per_day``. Not simulated
    #: time, therefore outside the determinism contract.
    wall_s: float = 0.0
    #: Merged per-shard observer summaries
    #: (:func:`repro.obs.metrics.merge_summaries` output), or ``None``
    #: when the fleet ran unobserved.
    metrics: Optional[dict] = None

    def __post_init__(self) -> None:
        reports = [shard.report for shard in self.shards]
        self.testbed = ",".join(dict.fromkeys(r.testbed for r in reports))
        self.jobs = [job for report in reports for job in report.jobs]
        self.makespan_s = max((r.makespan_s for r in reports), default=0.0)
        self.truncated = any(r.truncated for r in reports)

    @property
    def jobs_per_sec(self) -> float:
        """Simulated jobs per real second of fleet execution."""
        return len(self.jobs) / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def jobs_per_day(self) -> float:
        """Throughput headline: jobs the fleet simulates per real day."""
        return self.jobs_per_sec * 86400.0

    @cached_property
    def per_shard(self) -> list[dict]:
        """One JSON-safe summary row per shard, in shard order."""
        rows = []
        for shard in self.shards:
            report = shard.report
            rows.append({
                "shard": shard.name,
                "testbed": report.testbed,
                "weight": shard.weight,
                "jobs": len(report.jobs),
                "routed_jobs": shard.routed_jobs,
                "stolen_in": shard.stolen_in,
                "stolen_out": shard.stolen_out,
                "bytes": report.total_bytes,
                "kwh": report.total_energy_j / JOULES_PER_KWH,
                "cost_usd": report.total_cost_usd,
                "kg_co2": report.total_kg_co2,
                "deferred": report.deferred_jobs,
                "deadline_miss_rate": report.deadline_miss_rate,
                "p95_slowdown": report.p95_slowdown,
                "makespan_s": report.makespan_s,
                "truncated": report.truncated,
                "unfinished_jobs": report.unfinished_jobs,
                "wall_s": shard.wall_s,
            })
        return rows

    # -- serialization / rendering --------------------------------------

    def to_dict(self) -> dict:
        """The service report's dict without per-job rows (see class
        docstring), plus the dispatch fields and per-shard rows."""
        return {
            **self._summary_dict(),
            "routing": self.routing,
            "shards": len(self.shards),
            "work_steals": self.work_steals,
            "wall_s": self.wall_s,
            "jobs_per_sec": self.jobs_per_sec,
            "jobs_per_day": self.jobs_per_day,
            "per_shard": self.per_shard,
        }

    def render(self) -> str:
        """The fleet report as an aligned, human-readable block."""
        cutoff = (
            f" (TRUNCATED: {self.unfinished_jobs} unfinished)"
            if self.truncated
            else ""
        )
        turnaround = (
            "n/a"
            if self.p95_turnaround_s is None
            else f"{self.p95_turnaround_s:.0f} s"
        )
        lines = [
            f"Fleet day across {len(self.shards)} shards "
            f"(routing={self.routing}, policy={self.policy}, "
            f"tariff={self.tariff}):",
            f"  {len(self.jobs)} jobs, {units.to_GB(self.total_bytes):.1f} GB, "
            f"makespan {self.makespan_s:.0f} s, "
            f"wall {self.wall_s:.1f} s "
            f"({self.jobs_per_sec:.0f} jobs/s, "
            f"{self.jobs_per_day:.3g} jobs/day){cutoff}",
            f"  energy {self.total_energy_j / JOULES_PER_KWH:.3f} kWh -> "
            f"${self.total_cost_usd:.4f}, {self.total_kg_co2:.4f} kgCO2",
            f"  deferred {self.deferred_jobs}, "
            f"deadline misses {self.deadline_miss_rate:.0%}, "
            f"slowdown p50 {_fmt_pct(self.p50_slowdown)} "
            f"/ p95 {_fmt_pct(self.p95_slowdown)}, "
            f"turnaround p95 {turnaround}, "
            f"steals {self.work_steals}",
        ]
        lines.append(
            f"  {'shard':<10s} {'jobs':>7s} {'GB':>9s} {'kWh':>8s} "
            f"{'$':>9s} {'kgCO2':>8s} {'miss':>5s} {'in/out':>7s} {'wall s':>7s}"
        )
        for row in self.per_shard:
            lines.append(
                f"  {row['shard']:<10s} {row['jobs']:>7d} "
                f"{units.to_GB(row['bytes']):>9.1f} {row['kwh']:>8.3f} "
                f"{row['cost_usd']:>9.4f} {row['kg_co2']:>8.4f} "
                f"{row['deadline_miss_rate']:>5.0%} "
                f"{row['stolen_in']:>3d}/{row['stolen_out']:<3d} "
                f"{row['wall_s']:>7.1f}"
            )
        lines += self._tenant_table()
        return "\n".join(lines)


# ----------------------------------------------------------------------
# shard execution (process-pool safe)
# ----------------------------------------------------------------------


def _run_shard(payload: dict) -> dict:
    """Execute one shard's service day and return picklable results.

    Top-level (not a closure/method) so a spawn-based
    :class:`ProcessPoolExecutor` can import it; everything it needs
    travels in the payload dict.
    """
    spec: ShardSpec = payload["spec"]
    observer = Observer() if payload["observe"] else None
    simulator = ServiceSimulator(
        spec.testbed,
        policy=payload["policy"],
        tariff=payload["tariff"],
        max_concurrent_jobs=payload["max_concurrent_jobs"],
        max_per_tenant=payload["max_per_tenant"],
        max_channels=payload["max_channels"],
        partition_policy=payload["partition_policy"],
        observer=observer,
        fast=payload["fast"],
        topology=payload["topology"],
        placement=payload["placement"],
        placement_seed=payload["placement_seed"],
    )
    start = time.perf_counter()  # repro: noqa[RPL002] — real shard wall-clock, reported outside the determinism contract
    report = simulator.run(
        payload["requests"],
        max_time=payload["max_time"],
        interventions=payload["interventions"],
        on_timeout=payload["on_timeout"],
    )
    wall_s = time.perf_counter() - start  # repro: noqa[RPL002] — see above
    return {
        "report": report,
        "wall_s": wall_s,
        "summary": observer.summary() if observer is not None else None,
    }


# ----------------------------------------------------------------------
# the fleet dispatcher
# ----------------------------------------------------------------------


class FleetSimulator:
    """Routes a day of tenant traffic across service shards and merges
    the results.

    Construct either with one ``testbed`` replicated ``shards`` times
    (a homogeneous fleet of identical links, shards named ``s0..sN``)
    or with explicit ``shard_specs`` (heterogeneous links and weights).
    Every per-shard knob (``max_concurrent_jobs``, ``max_per_tenant``,
    ``max_channels``, ``partition_policy``, ``fast``, ``topology``,
    ``placement``) is passed through to each shard's
    :class:`~repro.service.simulate.ServiceSimulator` unchanged — with
    a ``topology`` spec every shard runs its own copy of the fabric —
    so a one-shard fleet reproduces the plain service exactly.

    ``workers`` bounds real parallelism: ``None`` picks
    ``min(shards, cpu_count)``; ``1`` runs shards inline (no process
    pool, no pickling); ``>1`` uses a :class:`ProcessPoolExecutor`,
    which requires picklable testbeds/policies/tariffs. Results are
    identical either way — shards are independent simulations.
    """

    def __init__(
        self,
        testbed: Optional[Testbed] = None,
        *,
        policy: DeferralPolicy,
        tariff: TariffTrace,
        shards: int = 8,
        shard_specs: Optional[Sequence[ShardSpec]] = None,
        routing: str = "tenant-hash",
        steal_threshold: Optional[float] = 4.0,
        max_concurrent_jobs: int = 4,
        max_per_tenant: Optional[int] = None,
        max_channels: int = 4,
        partition_policy: PartitionPolicy = PartitionPolicy(),
        observer: Optional[Observer] = None,
        fast: bool = True,
        workers: Optional[int] = None,
        topology: Optional[str] = None,
        placement: str = "least-congested",
        placement_seed: int = 0,
    ) -> None:
        if (testbed is None) == (shard_specs is None):
            raise ValueError("provide exactly one of testbed or shard_specs")
        if shard_specs is not None:
            self.shards: list[ShardSpec] = list(shard_specs)
            if not self.shards:
                raise ValueError("shard_specs must be non-empty")
        else:
            if shards < 1:
                raise ValueError("shards must be >= 1")
            assert testbed is not None
            self.shards = [
                ShardSpec(name=f"s{i}", testbed=testbed) for i in range(shards)
            ]
        names = [spec.name for spec in self.shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {sorted(names)}")
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing {routing!r}; known: "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        if steal_threshold is not None and steal_threshold < 1.0:
            raise ValueError(
                "steal_threshold must be >= 1.0 (or None to disable)"
            )
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.policy = policy
        self.tariff = tariff
        self.routing = routing
        self.steal_threshold = steal_threshold
        self.max_concurrent_jobs = max_concurrent_jobs
        self.max_per_tenant = max_per_tenant
        self.max_channels = max_channels
        self.partition_policy = partition_policy
        self.observer = observer
        self.fast = fast
        #: Topology travels as a *spec string* (picklable; each shard
        #: builds its own fresh instance against its testbed's path).
        self.topology = topology
        self.placement = placement
        self.placement_seed = placement_seed
        self.workers = workers

    # ------------------------------------------------------------------

    def _payloads(
        self,
        routed: RoutingResult,
        max_time: Seconds,
        interventions: Sequence[Intervention],
        on_timeout: str,
    ) -> list[dict[str, Any]]:
        observe = self.observer is not None
        return [
            {
                "spec": spec,
                "requests": list(bucket),
                "policy": self.policy,
                "tariff": self.tariff,
                "max_concurrent_jobs": self.max_concurrent_jobs,
                "max_per_tenant": self.max_per_tenant,
                "max_channels": self.max_channels,
                "partition_policy": self.partition_policy,
                "fast": self.fast,
                "topology": self.topology,
                "placement": self.placement,
                "placement_seed": self.placement_seed,
                "max_time": max_time,
                "observe": observe,
                "interventions": tuple(interventions),
                "on_timeout": on_timeout,
            }
            for spec, bucket in zip(self.shards, routed.buckets, strict=True)
        ]

    def run(
        self,
        requests: Sequence[TransferRequest],
        *,
        max_time: Seconds = 1e7,
        interventions: Sequence[Intervention] = (),
        on_timeout: str = "raise",
    ) -> FleetReport:
        """Route, execute and merge one fleet day.

        ``max_time`` bounds each shard's *simulated* day; a shard that
        cannot finish raises
        :class:`~repro.netsim.multi.TransferTimeout`, exactly as the
        plain service does — unless ``on_timeout="report"`` asks for
        honestly-truncated shard reports instead.

        ``interventions`` (picklable :class:`Intervention` actions) are
        replayed *on every shard*: fleet-level chaos models shared
        weather — a brownout or tariff spike hits all links of the
        region at once — while per-shard fault isolation falls out of
        each shard owning its own executor state.
        """
        routed = route_requests(
            requests,
            self.shards,
            routing=self.routing,
            steal_threshold=self.steal_threshold,
            observer=self.observer,
        )
        payloads = self._payloads(routed, max_time, interventions, on_timeout)
        if self.observer is not None:
            for spec, bucket in zip(self.shards, routed.buckets, strict=True):
                self.observer.shard_started(0.0, spec.name, len(bucket))
        n_workers = (
            self.workers
            if self.workers is not None
            else min(len(self.shards), os.cpu_count() or 1)
        )
        start = time.perf_counter()  # repro: noqa[RPL002] — real dispatch wall-clock, reported outside the determinism contract
        if n_workers <= 1 or len(self.shards) == 1:
            outs = [_run_shard(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                outs = list(pool.map(_run_shard, payloads))
        wall_s = time.perf_counter() - start  # repro: noqa[RPL002] — see above
        shard_results: list[ShardResult] = []
        summaries: list[dict] = []
        for i, (spec, out) in enumerate(zip(self.shards, outs, strict=True)):
            report: ServiceReport = out["report"]
            shard_results.append(
                ShardResult(
                    name=spec.name,
                    weight=spec.weight,
                    routed_jobs=len(routed.buckets[i]),
                    stolen_in=routed.stolen_in[i],
                    stolen_out=routed.stolen_out[i],
                    wall_s=out["wall_s"],
                    report=report,
                )
            )
            if out["summary"] is not None:
                summaries.append(out["summary"])
            if self.observer is not None:
                self.observer.shard_completed(
                    report.makespan_s, spec.name, len(report.jobs),
                    out["wall_s"],
                )
                if out["summary"] is not None:
                    self.observer.merge_summary(out["summary"])
        merged_metrics = merge_summaries(summaries) if summaries else None
        return FleetReport(
            routing=self.routing,
            policy=self.policy.name,
            tariff=self.tariff.name,
            topology=self.topology,
            placement=None if self.topology is None else self.placement,
            shards=shard_results,
            work_steals=routed.steals,
            wall_s=wall_s,
            metrics=merged_metrics,
        )
