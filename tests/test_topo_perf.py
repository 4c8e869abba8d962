"""Topology performance-layer contracts.

The allocation LRU and incremental re-fill must both be
*bit-identical* to the from-scratch solve; the netsim round-reuse
(signature skip + ``refill``) must leave every binding decision — and
therefore every timestamp of a service day — exactly as a
from-scratch ``allocate`` per round would; a fleet whose shards each
run the fabric must be deterministic and survive the process pool;
and the cache telemetry must flow through counters, the
``allocation_cached`` event and the renderers.
"""

import json

import pytest

from repro.obs.observer import Observer, render_events, render_metrics
from repro.service import RunNow, ServiceSimulator, bursty_workload, \
    peak_offpeak_tariff, poisson_workload
from repro.service.fleet import FleetSimulator
from repro import units
from repro.datasets.files import Dataset
from repro.service.policies import plan_cache_clear
from repro.service.requests import BALANCED, TransferRequest
from repro.testbeds.specs import testbed_by_name as _testbed_by_name
from repro.topo import (
    FlowDemand,
    alloc_cache_clear,
    alloc_cache_info,
    allocate,
    build_topology,
    refill,
    set_alloc_cache,
)

XSEDE = _testbed_by_name("xsede")
DAY = 600.0


def make_request(name="job", tenant="t", submit=0.0, n_files=8, file_mb=5):
    ds = Dataset.from_sizes([file_mb * units.MB] * n_files, name=name)
    return TransferRequest(name, tenant, ds, sla=BALANCED,
                           submit_time=submit)

TOPOLOGY_SPECS = (
    "single-link",
    "leaf-spine:s=2,l=4,spine=0.4",
    "fat-tree:k=4,core=0.3",
)
PLACEMENTS = ("least-congested", "ecmp-hash")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Every test starts from an empty allocation LRU (enabled) and an
    empty plan cache, and leaves the module switches as it found them."""
    prev = set_alloc_cache(True)
    alloc_cache_clear()
    plan_cache_clear()
    yield
    set_alloc_cache(prev)
    alloc_cache_clear()


def flows_for(topology, n, *, demand_scale=1.0):
    """``n`` deterministic unit-weight flows over ``topology``'s paths,
    demands spread around the hop capacities so some flows saturate and
    some stay demand-limited."""
    paths = sorted(topology.paths)
    cap = min(topology.capacity(hop) for hop in topology.bottlenecks)
    return [
        FlowDemand(
            f"f{i:03d}",
            topology.paths[paths[i % len(paths)]].bottlenecks,
            demand_scale * cap * (0.1 + ((i * 7) % 13) / 6.0),
        )
        for i in range(n)
    ]


def run_day(requests, *, fast=True, observer=None, **kwargs):
    plan_cache_clear()
    sim = ServiceSimulator(
        XSEDE,
        policy=RunNow(),
        tariff=peak_offpeak_tariff(period_s=DAY),
        fast=fast,
        observer=observer,
        **kwargs,
    )
    return sim.run(requests)


def report_json(report) -> str:
    data = report.to_dict()
    data.pop("topology", None)
    data.pop("placement", None)
    return json.dumps(data, sort_keys=True)


# ----------------------------------------------------------------------
# allocator equivalence: from-scratch / LRU / refill
# ----------------------------------------------------------------------


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("n", [8, 48])
    def test_cached_hit_is_bit_identical(self, spec, n):
        topology = build_topology(spec, bandwidth=1e9)
        flows = flows_for(topology, n)
        baseline = allocate(topology, flows, cache=False)
        alloc_cache_clear()
        first = allocate(topology, flows)
        info = alloc_cache_info()
        assert (info.hits, info.misses) == (0, 1)
        second = allocate(topology, flows)
        info = alloc_cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert first == baseline
        assert second == baseline
        assert second is first  # the memoized object itself

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    def test_refill_matches_from_scratch(self, spec):
        """Demand change, join and departure — each spliced result must
        equal a cold solve on the new flow set."""
        topology = build_topology(spec, bandwidth=1e9)
        flows = flows_for(topology, 24)
        previous = allocate(topology, flows, cache=False)

        bumped = [
            FlowDemand(f.flow, f.path, f.demand * (1.5 if i == 3 else 1.0))
            for i, f in enumerate(flows)
        ]
        joined = bumped + [FlowDemand("late", flows[0].path, 2.0e8)]
        departed = [f for f in flows if f.flow != "f001"]
        for variant in (bumped, joined, departed):
            spliced = refill(topology, variant, previous, cache=False)
            scratch = allocate(topology, variant, cache=False)
            assert spliced == scratch

    def test_refill_unchanged_set_returns_previous(self):
        topology = build_topology(TOPOLOGY_SPECS[1], bandwidth=1e9)
        flows = flows_for(topology, 12)
        previous = allocate(topology, flows, cache=False)
        assert refill(topology, flows, previous, cache=False) is previous

    def test_refill_counts_lru_traffic(self):
        topology = build_topology(TOPOLOGY_SPECS[1], bandwidth=1e9)
        flows = flows_for(topology, 12)
        previous = allocate(topology, flows)  # miss 1
        bumped = [FlowDemand(f.flow, f.path, f.demand * 1.1) for f in flows]
        refill(topology, bumped, previous)  # miss on the full key
        info = alloc_cache_info()
        assert info.hits == 0 and info.misses >= 2
        refill(topology, bumped, previous)  # now a hit on the full key
        assert alloc_cache_info().hits == 1

    def test_cache_key_includes_capacities(self):
        """A brownout must never serve a pre-brownout memo."""
        topology = build_topology("single-link", bandwidth=1e9)
        flows = [FlowDemand("f", ("link",), 2e9)]
        before = allocate(topology, flows)
        topology.scale_bottleneck("link", 0.5)
        after = allocate(topology, flows)
        assert before.rates["f"] == 1e9
        assert after.rates["f"] == 0.5e9
        assert alloc_cache_info().misses == 2


# ----------------------------------------------------------------------
# netsim round reuse: binding decisions pinned to from-scratch allocate
# ----------------------------------------------------------------------


class TestRoundReuseBindingRegression:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_day_identical_to_fresh_allocate_per_round(
        self, placement, monkeypatch
    ):
        """The signature skip, the LRU and ``refill`` together must make
        exactly the decisions a from-scratch ``allocate`` per round
        would — pinned by running the same day with ``refill``
        monkeypatched to an uncached cold solve and demanding a
        byte-identical report (``_would_bind`` included: it shares the
        same ``refill`` entry point)."""
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(topology=TOPOLOGY_SPECS[1], placement=placement,
                      placement_seed=7, max_concurrent_jobs=6)
        cached = run_day(requests, **kwargs)

        import repro.netsim.multi as multi

        def cold(topology, flows, previous, *, changed=None,
                 max_rounds=64, cache=None):
            return allocate(topology, flows, cache=False)

        monkeypatch.setattr(multi, "refill", cold)
        alloc_cache_clear()
        scratch = run_day(requests, **kwargs)
        assert report_json(cached) == report_json(scratch)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS[1:])
    def test_fast_vs_grid_with_caching(self, spec, placement):
        """With the LRU on and round reuse active, the fast path must
        still be an exact re-implementation of the dt-grid loop."""
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(topology=spec, placement=placement, placement_seed=7,
                      max_concurrent_jobs=6)
        fast = run_day(requests, fast=True, **kwargs)
        alloc_cache_clear()
        grid = run_day(requests, fast=False, **kwargs)
        assert [j.name for j in fast.jobs] == [j.name for j in grid.jobs]
        for jf, jg in zip(fast.jobs, grid.jobs):
            for attr in ("submitted_at", "released_at", "admitted_at",
                         "completed_at"):
                assert getattr(jf, attr) == getattr(jg, attr), (jf.name, attr)
            for attr in ("energy_j", "cost_usd", "kg_co2"):
                a, b = getattr(jf, attr), getattr(jg, attr)
                assert a == pytest.approx(b, rel=1e-9), (jf.name, attr)

    def test_repeat_day_is_mostly_cache_hits(self):
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        kwargs = dict(topology=TOPOLOGY_SPECS[1], placement="least-congested",
                      max_concurrent_jobs=6)
        run_day(requests, **kwargs)
        observer = Observer()
        run_day(requests, observer=observer, **kwargs)
        counters = observer.metrics.snapshot()["counters"]
        hits = counters.get("topo.alloc_cache_hits", 0.0)
        misses = counters.get("topo.alloc_cache_misses", 0.0)
        assert hits + misses > 0
        assert hits / (hits + misses) > 0.9


# ----------------------------------------------------------------------
# telemetry: counters, allocation_cached events, renderers
# ----------------------------------------------------------------------


class TestCacheTelemetry:
    def observed_day(self):
        observer = Observer()
        requests = bursty_workload(6, day_s=DAY, seed=9, size_scale=0.2)
        run_day(requests, topology=TOPOLOGY_SPECS[1], observer=observer,
                max_concurrent_jobs=6)
        return observer

    def test_counters_and_events(self):
        observer = self.observed_day()
        counters = observer.metrics.snapshot()["counters"]
        assert counters.get("topo.alloc_cache_misses", 0.0) > 0
        assert "topo.alloc_cache_hits" in counters
        assert "topo.alloc_incremental_rounds" in counters
        kinds = observer.events.kinds()
        assert kinds.get("allocation_cached", 0) >= 1
        for event in observer.events.filter(kind="allocation_cached"):
            assert event.detail["rounds"] >= 1
            assert event.detail["span_s"] >= 0.0

    def test_renderers_format_the_new_event(self):
        observer = self.observed_day()
        text = render_events(observer.events)
        assert "allocation_cached" in text
        assert "cached round(s)" in text
        metrics = render_metrics(observer.metrics.snapshot())
        assert "topo.alloc_cache_hits" in metrics


# ----------------------------------------------------------------------
# fleet: every shard runs its own fabric
# ----------------------------------------------------------------------


class TestTopologyAwareRouting:
    """Plain routing in front of topology-backed shards."""

    def test_fleet_day_deterministic_and_pool_identical(self):
        requests = poisson_workload(12, seed=7)
        kwargs = dict(
            policy=RunNow(),
            tariff=peak_offpeak_tariff(period_s=DAY),
            fast=True,
            topology="leaf-spine:s=2,l=3",
            shards=3,
            routing="least-loaded",
        )
        reports = []
        for workers in (1, 2):  # inline, then a process pool
            alloc_cache_clear()
            plan_cache_clear()
            fleet = FleetSimulator(XSEDE, **kwargs, workers=workers)
            reports.append(fleet.run(requests))
        inline, pooled = reports
        assert inline.topology == "leaf-spine:s=2,l=3"
        assert all(s.report.topology == inline.topology
                   for s in inline.shards)
        assert [s.routed_jobs for s in inline.shards] \
            == [s.routed_jobs for s in pooled.shards]
        assert [(j.name, j.admitted_at, j.completed_at, j.energy_j)
                for j in inline.jobs] \
            == [(j.name, j.admitted_at, j.completed_at, j.energy_j)
                for j in pooled.jobs]
        assert inline.total_energy_j == pooled.total_energy_j
