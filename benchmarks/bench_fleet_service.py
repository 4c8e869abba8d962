"""Fleet-scale service benchmark: 1M jobs/day across a sharded fleet.

Runs a production-scale day of chunky-dataset tenant traffic through
the sharded fleet dispatcher (``repro.service.fleet``) and writes
``BENCH_fleet.json``. Two measurements:

* **fleet cells** — jobs/sec and jobs/day throughput plus p95
  end-to-end (submit → complete) latency at growing scale; the
  headline cell simulates **1,000,000 jobs across 8 shards**, which
  must clear 1M jobs/day (12 jobs/sec aggregate);
* **consistency** — a single-shard fleet vs a plain
  ``ServiceSimulator(fast=True)`` on the identical workload: admission
  decisions must be identical and energy/cost/carbon must agree to
  rel-err < 1e-9 (they are in fact bit-equal).

``--check`` turns both into a CI gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_service.py          # full
    PYTHONPATH=src python benchmarks/bench_fleet_service.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_fleet_service.py --smoke --check

Not a pytest file on purpose: it is a standalone script so CI can run
it in smoke mode and upload the JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_service import (  # noqa: E402 — sibling bench module
    SCALE_DATASET_POOL,
    SCALE_DAY_PER_JOB_S,
    SCALE_POLICY,
    SCALE_SIZE_SCALE,
    SCALE_TENANTS,
    _rel_err,
)

from repro.service import (
    FleetSimulator,
    ServiceSimulator,
    policy_by_name,
    tariff_by_name,
)
from repro.service.policies import plan_cache_clear
from repro.service.requests import TransferRequest, diurnal_workload
from repro.testbeds.specs import testbed_by_name

ROUTING = "least-loaded"

#: ``(jobs, shards)`` fleet scale cells; the last is the headline.
FLEET_CELLS: tuple[tuple[int, int], ...] = (
    (100_000, 8),
    (1_000_000, 8),
)
SMOKE_FLEET_CELLS: tuple[tuple[int, int], ...] = ((2_000, 4),)

CONSISTENCY_JOBS = 1_000
SMOKE_CONSISTENCY_JOBS = 240

#: The acceptance floor: one million jobs per simulated-at-real-time day.
JOBS_PER_DAY_FLOOR = 1_000_000.0


def _workload(jobs: int, day_s: float, seed: int) -> list[TransferRequest]:
    """The scale-cell tenant mix at fleet size (shared dataset pool
    keeps 1M requests memory-light and exercises plan memoization)."""
    return diurnal_workload(
        jobs,
        day_s=day_s,
        seed=seed,
        tenants=SCALE_TENANTS,
        size_scale=SCALE_SIZE_SCALE,
        dataset_pool=SCALE_DATASET_POOL,
    )


def _fleet(
    jobs: int,
    shards: int,
    day_s: float,
    *,
    workers: Optional[int],
) -> FleetSimulator:
    return FleetSimulator(
        testbed_by_name("xsede"),
        policy=policy_by_name(SCALE_POLICY),
        tariff=tariff_by_name("peak-offpeak", period_s=day_s),
        shards=shards,
        routing=ROUTING,
        max_concurrent_jobs=4,
        workers=workers,
    )


def run_fleet_cell(jobs: int, shards: int, *, seed: int, workers: Optional[int]) -> dict:
    """One fleet throughput measurement.

    ``day_s`` scales so each *shard* sees the same arrival rate as the
    single-link scale cells in ``bench_service.py`` — the sweep
    measures fleet size, not load-shape drift.
    """
    day_s = SCALE_DAY_PER_JOB_S * jobs / shards
    requests = _workload(jobs, day_s, seed)
    plan_cache_clear()
    fleet = _fleet(jobs, shards, day_s, workers=workers)
    start = time.perf_counter()
    report = fleet.run(requests, max_time=20.0 * day_s)
    wall = time.perf_counter() - start
    finished = sum(
        1 for shard in report.shards for j in shard.report.jobs if j.finished
    )
    return {
        "jobs": jobs,
        "shards": shards,
        "routing": ROUTING,
        "day_s": day_s,
        "wall_s": wall,
        "jobs_per_sec": jobs / wall if wall > 0 else 0.0,
        "jobs_per_day": (jobs / wall) * 86400.0 if wall > 0 else 0.0,
        "finished_jobs": finished,
        "p95_turnaround_s": report.p95_turnaround_s,
        "mean_turnaround_s": report.mean_turnaround_s,
        "p50_slowdown": report.p50_slowdown,
        "p95_slowdown": report.p95_slowdown,
        "deadline_miss_rate": report.deadline_miss_rate,
        "total_kwh": report.total_energy_j / 3.6e6,
        "total_cost_usd": report.total_cost_usd,
        "total_kg_co2": report.total_kg_co2,
        "work_steals": report.work_steals,
        "shard_walls_s": [s.wall_s for s in report.shards],
    }


def run_consistency_cell(jobs: int, *, seed: int) -> dict:
    """Single-shard fleet vs plain ``ServiceSimulator(fast=True)``.

    The fleet must be a pure wrapper at one shard: identical admission
    decisions, bit-equal timestamps, rel-err < 1e-9 on energy, cost
    and carbon.
    """
    day_s = SCALE_DAY_PER_JOB_S * jobs
    requests = _workload(jobs, day_s, seed)
    tariff = tariff_by_name("peak-offpeak", period_s=day_s)
    plan_cache_clear()
    single = ServiceSimulator(
        testbed_by_name("xsede"),
        policy=policy_by_name(SCALE_POLICY),
        tariff=tariff,
        max_concurrent_jobs=4,
        fast=True,
    ).run(requests, max_time=20.0 * day_s)
    plan_cache_clear()
    fleet_report = _fleet(jobs, 1, day_s, workers=1).run(
        requests, max_time=20.0 * day_s
    )
    shard = fleet_report.shards[0].report
    admissions_identical = len(shard.jobs) == len(single.jobs) and all(
        (a.name, a.released_at, a.admitted_at, a.completed_at,
         a.deferral_reason)
        == (b.name, b.released_at, b.admitted_at, b.completed_at,
            b.deferral_reason)
        for a, b in zip(shard.jobs, single.jobs, strict=True)
    )
    return {
        "jobs": jobs,
        "admissions_identical": admissions_identical,
        "rel_err_energy": _rel_err(
            fleet_report.total_energy_j, single.total_energy_j
        ),
        "rel_err_cost": _rel_err(
            fleet_report.total_cost_usd, single.total_cost_usd
        ),
        "rel_err_co2": _rel_err(fleet_report.total_kg_co2, single.total_kg_co2),
    }


def run_benchmark(
    *, smoke: bool = False, seed: int = 7, workers: Optional[int] = None
) -> dict:
    fleet_cells = [
        run_fleet_cell(jobs, shards, seed=seed, workers=workers)
        for jobs, shards in (SMOKE_FLEET_CELLS if smoke else FLEET_CELLS)
    ]
    consistency = run_consistency_cell(
        SMOKE_CONSISTENCY_JOBS if smoke else CONSISTENCY_JOBS, seed=seed
    )
    headline = fleet_cells[-1]
    return {
        "benchmark": "fleet_service",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "smoke": smoke,
        "seed": seed,
        "workers": workers,
        "python": sys.version.split()[0],
        "routing": ROUTING,
        "testbed": "xsede",
        "policy": SCALE_POLICY,
        "tariff": "peak-offpeak",
        "fleet_cells": fleet_cells,
        "consistency": consistency,
        "headline": {
            "jobs": headline["jobs"],
            "shards": headline["shards"],
            "jobs_per_sec": headline["jobs_per_sec"],
            "jobs_per_day": headline["jobs_per_day"],
            "p95_turnaround_s": headline["p95_turnaround_s"],
            "deadline_miss_rate": headline["deadline_miss_rate"],
            "single_shard_rel_err_cost": consistency["rel_err_cost"],
            "admissions_identical": consistency["admissions_identical"],
        },
    }


def check_benchmark(report: dict) -> list[str]:
    """CI gate: return a list of failure strings (empty = pass).

    Gates (1) aggregate throughput at or above 1M jobs/day on every
    fleet cell and (2) single-shard fleet consistency with the plain
    service — identical admissions, rel-err < 1e-9 on energy, cost and
    carbon.
    """
    failures: list[str] = []
    for row in report["fleet_cells"]:
        if row["jobs_per_day"] < JOBS_PER_DAY_FLOOR:
            failures.append(
                f"{row['jobs']}-job/{row['shards']}-shard fleet cell: "
                f"{row['jobs_per_day']:.3g} jobs/day below the "
                f"{JOBS_PER_DAY_FLOOR:.0e} floor"
            )
        if row["finished_jobs"] != row["jobs"]:
            failures.append(
                f"{row['jobs']}-job fleet cell: only "
                f"{row['finished_jobs']} jobs finished"
            )
    consistency = report["consistency"]
    if not consistency["admissions_identical"]:
        failures.append(
            "single-shard fleet made different admission decisions than "
            "ServiceSimulator(fast=True)"
        )
    for key in ("rel_err_energy", "rel_err_cost", "rel_err_co2"):
        if consistency[key] > 1e-9:
            failures.append(
                f"single-shard consistency: {key} {consistency[key]:.3e} "
                "above the 1e-9 floor"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small CI mode: 2k jobs across 4 shards")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="real process parallelism across shards "
             "(default: min(shards, cpu count); 1 = inline)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: exit non-zero unless every fleet cell clears "
             "1M jobs/day and the single-shard fleet matches the plain "
             "service to rel-err < 1e-9 with identical admissions",
    )
    parser.add_argument(
        "-o", "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_fleet.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(smoke=args.smoke, seed=args.seed, workers=args.workers)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"fleet benchmark ({'smoke' if args.smoke else 'full'}) -> {args.output}")
    print("  fleet cells (least-loaded routing, run-now, peak-offpeak):")
    for row in report["fleet_cells"]:
        print(
            f"    {row['jobs']:>9,} jobs / {row['shards']} shards  "
            f"wall {row['wall_s']:8.1f} s  "
            f"{row['jobs_per_sec']:7.1f} jobs/s  "
            f"{row['jobs_per_day']:.3g} jobs/day  "
            f"p95 turnaround {row['p95_turnaround_s']:.0f} s  "
            f"steals {row['work_steals']}"
        )
    consistency = report["consistency"]
    print(
        f"  single-shard vs ServiceSimulator(fast) at "
        f"{consistency['jobs']} jobs: admissions "
        f"{'identical' if consistency['admissions_identical'] else 'DIFFER'}, "
        f"rel-err energy {consistency['rel_err_energy']:.1e} / "
        f"cost {consistency['rel_err_cost']:.1e} / "
        f"co2 {consistency['rel_err_co2']:.1e}"
    )
    head = report["headline"]
    print(
        f"  headline: {head['jobs']:,} jobs across {head['shards']} shards "
        f"at {head['jobs_per_sec']:.1f} jobs/s "
        f"({head['jobs_per_day']:.3g} jobs/day), "
        f"p95 end-to-end latency {head['p95_turnaround_s']:.0f} s"
    )
    if args.check:
        failures = check_benchmark(report)
        if failures:
            for failure in failures:
                print(f"  CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("  checks passed: throughput floor, single-shard "
              "consistency")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
