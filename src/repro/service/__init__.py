"""An energy/price/deadline-aware transfer scheduling *service*.

The paper's closing argument is economic: providers "can possibly
offer low-cost data transfer options to their customers in return for
delayed transfers". This package models that provider end to end:

* :mod:`repro.service.requests` — tenants, SLA classes, seeded
  workload generators (a reproducible day of traffic);
* :mod:`repro.service.tariff` — time-of-use electricity price and
  carbon-intensity traces (the time axis that turns joules into
  dollars);
* :mod:`repro.service.policies` — SLA class -> transfer plan, via the
  paper's planners (MinE / HTEE / SLAEE);
* :mod:`repro.service.scheduler` — deferral policies and admission
  priorities, under a deadline-safety invariant;
* :mod:`repro.service.simulate` — the event loop that admits,
  executes and bills each job at the tariff in force while it runs;
* :mod:`repro.service.fleet` — the sharded fleet dispatcher that
  routes a day across many links and merges per-shard reports.

Surfaced as ``repro service`` / ``repro fleet-service`` on the CLI and
benchmarked by ``benchmarks/bench_service.py`` /
``benchmarks/bench_fleet_service.py``.
"""

from repro.service.fleet import (
    FleetReport,
    FleetSimulator,
    ROUTING_POLICIES,
    RoutingResult,
    ShardResult,
    ShardSpec,
    route_requests,
)
from repro.service.policies import (
    JobPlan,
    plan_cache_clear,
    plan_cache_info,
    plan_for,
)
from repro.service.requests import (
    BALANCED,
    DEFAULT_TENANTS,
    ENERGY,
    SLAClass,
    TenantProfile,
    TransferRequest,
    WORKLOAD_PRESETS,
    bursty_workload,
    diurnal_workload,
    poisson_workload,
    sla,
    workload_by_name,
)
from repro.service.scheduler import (
    CarbonAware,
    DeadlineEDF,
    DeferralPolicy,
    POLICY_PRESETS,
    PriceThreshold,
    RunNow,
    SchedulingDecision,
    latest_safe_start,
    policy_by_name,
)
from repro.service.simulate import JobResult, ServiceReport, ServiceSimulator
from repro.service.tariff import (
    TARIFF_PRESETS,
    TariffTrace,
    flat_tariff,
    green_midday_tariff,
    peak_offpeak_tariff,
    tariff_by_name,
)

__all__ = [
    # requests
    "SLAClass", "ENERGY", "BALANCED", "sla", "TransferRequest",
    "TenantProfile", "DEFAULT_TENANTS", "poisson_workload",
    "diurnal_workload", "bursty_workload", "WORKLOAD_PRESETS",
    "workload_by_name",
    # tariffs
    "TariffTrace", "flat_tariff", "peak_offpeak_tariff",
    "green_midday_tariff", "TARIFF_PRESETS", "tariff_by_name",
    # planning
    "JobPlan", "plan_for", "plan_cache_info", "plan_cache_clear",
    # scheduling
    "SchedulingDecision", "DeferralPolicy", "RunNow", "DeadlineEDF",
    "PriceThreshold", "CarbonAware", "POLICY_PRESETS", "policy_by_name",
    "latest_safe_start",
    # simulation
    "JobResult", "ServiceReport", "ServiceSimulator",
    # fleet
    "FleetReport", "FleetSimulator", "ROUTING_POLICIES",
    "RoutingResult", "ShardResult", "ShardSpec", "route_requests",
]
