"""The four seeded service days the benchmark runs.

Each :class:`Workload` fixes every parameter of one day except the
workload seed, which the caller passes in. :func:`build_inputs` turns a
workload and a seed into the day's inputs (testbed, tariff, topology,
requests) and times each set-up step; :func:`make_simulator` builds the
public simulator (``ServiceSimulator`` or ``FleetSimulator``) that runs
them. Nothing here reaches below the public ``repro`` API.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

@dataclass(frozen=True)
class Workload:
    """One service day, fixed up to its seed."""

    name: str
    #: ``service`` (one ServiceSimulator) or ``fleet`` (FleetSimulator).
    kind: str
    arrivals: str
    jobs: int
    day_s: float
    size_scale: float
    policy: str
    tariff: str
    tariff_period_s: float
    max_concurrent_jobs: int
    topology: Optional[str] = None
    placement: Optional[str] = None
    shards: Optional[int] = None
    routing: Optional[str] = None
    workers: Optional[int] = None
    testbed: str = "xsede"
    why: str = ""
    loads: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()

    def describe(self) -> dict[str, Any]:
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="day-p2p",
            kind="service",
            arrivals="bursty",
            jobs=600,
            day_s=6480.0,
            size_scale=0.1,
            policy="price-threshold",
            tariff="peak-offpeak",
            tariff_period_s=6480.0,
            max_concurrent_jobs=4,
            why=(
                "The in-envelope headline: deferral, plateau billing, "
                "admission and scalar coupled-engine rounds, with no "
                "topology."
            ),
            loads=(
                "service.scheduler", "service.simulate", "netsim.multi",
                "netsim.engine",
            ),
            bypasses=("topo.alloc", "topo.placement", "service.fleet"),
        ),
        Workload(
            name="day-fabric",
            kind="service",
            arrivals="steady",
            jobs=400,
            day_s=3456.0,
            size_scale=0.1,
            policy="run-now",
            tariff="peak-offpeak",
            tariff_period_s=3456.0,
            max_concurrent_jobs=8,
            topology="leaf-spine:s=2,l=6,spine=0.4",
            placement="least-congested",
            why=(
                "The only day where topo.alloc and topo.placement do "
                "work: the measurement the allocation LRU/refill "
                "keep-or-delete decision needs."
            ),
            loads=(
                "topo.alloc", "topo.placement", "netsim.multi",
                "netsim.engine",
            ),
            bypasses=("service.fleet",),
        ),
        Workload(
            name="fleet-steady",
            kind="fleet",
            arrivals="steady",
            jobs=800,
            day_s=17280.0,
            size_scale=1.0,
            policy="run-now",
            tariff="peak-offpeak",
            tariff_period_s=17280.0,
            max_concurrent_jobs=4,
            shards=8,
            routing="least-loaded",
            workers=2,
            why=(
                "Lightly loaded, so wall goes to per-job fixed costs "
                "(planning, admission, routing, pool start-up, report "
                "merge); the only day that exercises service.fleet."
            ),
            loads=(
                "service.policies", "service.fleet", "service.simulate",
            ),
            bypasses=("topo.alloc", "topo.placement"),
        ),
        Workload(
            name="day-overload",
            kind="service",
            arrivals="bursty",
            jobs=120,
            day_s=60.0,
            size_scale=0.015,
            policy="run-now",
            tariff="peak-offpeak",
            tariff_period_s=2880.0,
            max_concurrent_jobs=32,
            why=(
                "Past the congestion knee (the over-subscription "
                "cliff): single-step rounds over ~32 coupled engines "
                "take almost all of the wall."
            ),
            loads=("netsim.engine", "netsim.multi"),
            bypasses=("topo.alloc", "topo.placement", "service.fleet"),
        ),
    )
}


def build_inputs(workload: Workload, seed: int) -> tuple[dict[str, Any], dict[str, float]]:
    """The day's inputs and the host seconds each set-up step took.

    Returns ``(inputs, timings)``: ``inputs`` holds ``testbed``,
    ``tariff``, ``topology`` (a built ``Topology`` or ``None``) and
    ``requests``; ``timings`` holds ``inputs_s`` (testbed and tariff),
    ``topology_s`` and ``workload_s``.
    """
    from repro.service import tariff_by_name, workload_by_name
    from repro.testbeds.specs import testbed_by_name
    from repro.topo import build_topology

    clock = time.perf_counter
    t0 = clock()
    testbed = testbed_by_name(workload.testbed)
    tariff = tariff_by_name(workload.tariff, period_s=workload.tariff_period_s)
    t1 = clock()
    topology = (
        None
        if workload.topology is None
        else build_topology(workload.topology, bandwidth=testbed.path.bandwidth)
    )
    t2 = clock()
    requests = workload_by_name(
        workload.arrivals,
        workload.jobs,
        day_s=workload.day_s,
        seed=seed,
        size_scale=workload.size_scale,
    )
    t3 = clock()
    inputs = {
        "testbed": testbed,
        "tariff": tariff,
        "topology": topology,
        "requests": requests,
    }
    timings = {"inputs_s": t1 - t0, "topology_s": t2 - t1, "workload_s": t3 - t2}
    return inputs, timings


def make_simulator(
    workload: Workload,
    inputs: dict[str, Any],
    *,
    fast: bool = True,
    workers: Optional[int] = None,
    policy: Any = None,
):
    """The public simulator for ``workload`` (``workers`` overrides the
    fleet's pool size; ``policy`` overrides the preset instance)."""
    from repro.service import FleetSimulator, ServiceSimulator, policy_by_name

    if policy is None:
        policy = policy_by_name(workload.policy)
    if workload.kind == "fleet":
        return FleetSimulator(
            inputs["testbed"],
            policy=policy,
            tariff=inputs["tariff"],
            shards=workload.shards,
            routing=workload.routing,
            max_concurrent_jobs=workload.max_concurrent_jobs,
            fast=fast,
            workers=workers if workers is not None else workload.workers,
        )
    return ServiceSimulator(
        inputs["testbed"],
        policy=policy,
        tariff=inputs["tariff"],
        max_concurrent_jobs=workload.max_concurrent_jobs,
        fast=fast,
        topology=inputs["topology"],
        placement=workload.placement or "least-congested",
    )


def report_jobs(report) -> list:
    """Every ``JobResult`` of a service or fleet report, by name."""
    if hasattr(report, "shards"):
        jobs = [job for shard in report.shards for job in shard.report.jobs]
    else:
        jobs = list(report.jobs)
    return sorted(jobs, key=lambda job: job.name)


def outcome_digest(report) -> str:
    """A hash of every job's timestamps, energy and cost, exact to the
    bit: equal digests mean the simulated day was reproduced."""
    h = hashlib.sha256()
    for job in report_jobs(report):
        h.update(
            repr(
                (
                    job.name, job.submitted_at, job.released_at,
                    job.admitted_at, job.completed_at, job.total_bytes,
                    job.energy_j.hex(), job.cost_usd.hex(), job.kg_co2.hex(),
                )
            ).encode()
        )
    return h.hexdigest()
