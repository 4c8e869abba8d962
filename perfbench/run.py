"""Service-day benchmark: host speed next to the simulated outcome.

Runs one of four seeded service days (``perfbench/workloads.py``)
through the public ``ServiceSimulator.run`` / ``FleetSimulator.run``
API, each day in a fresh interpreter (``perfbench/day.py``), and prints
every metric by name with its unit and sample count. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload day-p2p --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload day-fabric --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1   # every workload
    python3 perfbench/run.py --evidence 1,2    # rewrite perfbench/regimes.json

``--seed n`` expands to ``SUB_DAYS`` workload seeds (``1000 n + i``).
``--trace 0`` measures untraced days, cycling over the sub-days until
``--seconds`` have passed (every sub-day at least once), and reports
the end-to-end metrics: host timings are medians over the days run,
simulated metrics are pooled over the distinct sub-days. ``--trace 1``
alternates untraced and traced days and reports the per-layer metrics
(call counts and exact counters from the first sub-day, seconds as
medians).

Every run first executes the correctness gate: fast driver vs dt-grid
oracle on a leading slice, bit-equal timestamps and energy/cost within
1e-9, every job completed with its bytes delivered, and identical
outcome digests for every replay of a sub-day. A failed check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Distinct workload seeds per benchmark seed; simulated metrics are
#: pooled over them so one unlucky draw cannot move a median.
SUB_DAYS = 8
#: Traced runs alternate untraced/traced days on at least this many
#: sub-days.
MIN_TRACED_DAYS = 2
#: Relative budget for fast-vs-grid energy/cost and delivered bytes
#: (float round-off only).
REL_TOL = 1e-9
#: Host seconds one child day may take before the run is failed.
CHILD_TIMEOUT_S = 150
#: Spans written by traced days (relative to the repository root).
SPANS_DIR = ".perfbench"

#: Per-layer metrics: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _fn in ("prepare_step", "advance_prepared", "stable_steps", "count_stable_steps"):
    LAYER_METRICS[f"netsim.engine.{_fn}.calls"] = ("count", "lower")
    LAYER_METRICS[f"netsim.engine.{_fn}.s"] = ("s", "lower")
LAYER_METRICS.update({
    "netsim.multi.run_until.calls": ("count", "lower"),
    "netsim.multi.run_until.s": ("s", "lower"),
    "netsim.multi.run_until.self_s": ("s", "lower"),
    "netsim.multi.submit.calls": ("count", "lower"),
    "netsim.multi.submit.s": ("s", "lower"),
    "netsim.multi.macro_round_ratio": ("ratio", "higher"),
    "netsim.multi.macro_rounds": ("count", "lower"),
    "netsim.multi.fixed_rounds": ("count", "lower"),
    "netsim.multi.macro_stepped_dts": ("count", "higher"),
    "topo.alloc.refill.calls": ("count", "lower"),
    "topo.alloc.refill.s": ("s", "lower"),
    "topo.alloc.cache_hit_ratio": ("ratio", "higher"),
    "topo.alloc.cache_hits": ("count", "higher"),
    "topo.alloc.cache_misses": ("count", "lower"),
    "topo.placement.place.calls": ("count", "lower"),
    "topo.placement.place.s": ("s", "lower"),
    "service.policies.plan_for.calls": ("count", "lower"),
    "service.policies.plan_for.s": ("s", "lower"),
    "service.policies.plan_cache_hit_ratio": ("ratio", "higher"),
    "service.policies.plan_cache_hits": ("count", "higher"),
    "service.policies.plan_cache_misses": ("count", "lower"),
    "service.scheduler.schedule.calls": ("count", "lower"),
    "service.scheduler.schedule.s": ("s", "lower"),
    "service.simulate.self_s": ("s", "lower"),
    "service.simulate.deadline_miss_rate": ("ratio", "lower"),
    "service.fleet.route_requests.s": ("s", "lower"),
    "service.fleet.shard_wall_sum_s": ("s", "lower"),
    "service.fleet.shard_wall_max_s": ("s", "lower"),
    "service.fleet.dispatch_overhead_s": ("s", "lower"),
    "service.fleet.parallel_efficiency": ("ratio", "higher"),
    "repro.import_s": ("s", "lower"),
    "service.requests.workload_s": ("s", "lower"),
    "topo.build_s": ("s", "lower"),
    "trace.day_wall_s": ("s", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_j_per_gb": "J/GB",
    "sim_usd_per_tb": "USD/TB",
    "sim_p50_slowdown": "ratio",
    "sim_p95_slowdown": "ratio",
}


class GateFailure(Exception):
    """A correctness check failed."""


def sub_seeds(seed: int) -> list[int]:
    return [1000 * seed + i for i in range(SUB_DAYS)]


def child(mode: str, workload: str, seed: int, **options) -> dict:
    """Run ``day.py`` in a fresh interpreter and return its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    cmd = [sys.executable, str(HERE / "day.py"), mode,
           "--workload", workload, "--seed", str(seed),
           "--spans-dir", SPANS_DIR]
    for key, value in options.items():
        if value is not None:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise GateFailure(
            f"{mode} day {workload}/{seed} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["sub_seed"] = seed
    return out


def _check(ok: bool, message: str, failures: list[str]) -> None:
    if not ok:
        failures.append(message)


def check_day(day: dict, label: str, failures: list[str]) -> None:
    """Every job finished and every requested byte was delivered."""
    _check(not day["truncated"] and day["unfinished"] == 0,
           f"{label}: {day['unfinished']} job(s) unfinished", failures)
    _check(day["total_bytes"] == day["requested_bytes"],
           f"{label}: report bytes {day['total_bytes']} != requested "
           f"{day['requested_bytes']}", failures)
    delivered = day.get("delivered_bytes")
    if delivered is not None:
        _check(abs(delivered - day["requested_bytes"])
               <= REL_TOL * day["requested_bytes"],
               f"{label}: delivered {delivered!r} != requested "
               f"{day['requested_bytes']}", failures)


def check_gate(gate: dict, failures: list[str]) -> None:
    _check(gate["slice_finished"] == 2 * gate["slice_jobs"],
           "gate: a slice job did not finish", failures)
    _check(gate["slice_times_bitequal"],
           "gate: fast and dt-grid submit/admit/complete times differ",
           failures)
    _check(gate["slice_energy_rel_err"] <= REL_TOL,
           f"gate: energy rel err {gate['slice_energy_rel_err']:.3g}", failures)
    _check(gate["slice_cost_rel_err"] <= REL_TOL,
           f"gate: cost rel err {gate['slice_cost_rel_err']:.3g}", failures)
    check_day(gate, "gate replay", failures)


def check_digests(days: list[dict], failures: list[str]) -> None:
    """Every replay of one sub-day reproduced it bit for bit."""
    seen: dict[int, str] = {}
    for day in days:
        digests = [day["digest"]]
        if "pooled" in day:
            digests.append(day["pooled"]["digest"])
        for digest in digests:
            first = seen.setdefault(day["sub_seed"], digest)
            _check(digest == first,
                   f"sub-day {day['sub_seed']}: outcome differs between "
                   "replays", failures)


def _percentile(values: list[float], q: float) -> float:
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def pooled_sim(days: list[dict]) -> dict:
    """Simulated metrics over the distinct sub-days in ``days``."""
    distinct = {day["sub_seed"]: day for day in days}
    chosen = [distinct[s] for s in sorted(distinct)]
    total_bytes = sum(d["total_bytes"] for d in chosen)
    slowdowns = [s for d in chosen for s in d["slowdowns"]]
    p95 = _percentile(slowdowns, 95.0)
    misses = sum(d["deadline_misses"] for d in chosen)
    with_deadline = sum(d["deadline_jobs"] for d in chosen)
    return {
        "sub_days": len(chosen),
        "jobs": sum(d["jobs"] for d in chosen),
        "sim_j_per_gb": sum(d["energy_j"] for d in chosen) / (total_bytes / 1e9),
        "sim_usd_per_tb": sum(d["cost_usd"] for d in chosen) / (total_bytes / 1e12),
        "sim_p50_slowdown": _percentile(slowdowns, 50.0),
        "sim_p95_slowdown": p95,
        "slowdown_samples": len(slowdowns),
        "slowdown_above_p95": sum(s > p95 for s in slowdowns),
        "deadline_misses": misses,
        "sim_deadline_miss_rate": misses / max(with_deadline, 1),
    }


def measure_plain(name: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced days, cycling the sub-days until ``seconds`` pass."""
    seeds = sub_seeds(seed)
    days: list[dict] = []
    start = time.monotonic()
    while len(days) < SUB_DAYS or time.monotonic() - start < seconds:
        days.append(child("plain", name, seeds[len(days) % SUB_DAYS]))
    jobs = WORKLOADS[name].jobs
    sim = pooled_sim(days)
    metrics = {
        "setup_s": (statistics.median([d["setup_s"] for d in days]), len(days)),
        "jobs_per_s": (statistics.median([jobs / d["wall_s"] for d in days]), len(days)),
        "peak_rss_mb": (statistics.median([d["peak_rss_mb"] for d in days]), len(days)),
        "sim_j_per_gb": (sim["sim_j_per_gb"], sim["jobs"]),
        "sim_usd_per_tb": (sim["sim_usd_per_tb"], sim["jobs"]),
        "sim_p50_slowdown": (sim["sim_p50_slowdown"], sim["slowdown_samples"]),
        "sim_p95_slowdown": (sim["sim_p95_slowdown"], sim["slowdown_samples"]),
    }
    return {"metrics": metrics, "sim": sim}, days


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from paired untraced/traced days."""
    first = traced[0]
    n = len(traced)

    def seconds(day: dict, span: str, field: str = "s") -> float:
        return day["layers"].get(span, {}).get(field, 0.0)

    out: dict[str, tuple[float, int]] = {}
    spans = (
        "netsim.engine.prepare_step", "netsim.engine.advance_prepared",
        "netsim.engine.stable_steps", "netsim.engine.count_stable_steps",
        "netsim.multi.run_until", "netsim.multi.submit", "topo.alloc.refill",
        "topo.placement.place", "service.policies.plan_for",
        "service.scheduler.schedule",
    )
    for span in spans:
        out[f"{span}.calls"] = (first["layers"].get(span, {}).get("calls", 0), 1)
        out[f"{span}.s"] = (statistics.median([seconds(d, span) for d in traced]), n)
    out["netsim.multi.run_until.self_s"] = (
        statistics.median([seconds(d, "netsim.multi.run_until", "self_s") for d in traced]), n)
    out["service.simulate.self_s"] = (
        statistics.median([seconds(d, "service.simulate.run", "self_s") for d in traced]), n)
    rounds = first["rounds"]
    out["netsim.multi.macro_rounds"] = (rounds["macro_rounds"], 1)
    out["netsim.multi.fixed_rounds"] = (rounds["fixed_rounds"], 1)
    out["netsim.multi.macro_stepped_dts"] = (rounds["macro_stepped_dts"], 1)
    out["netsim.multi.macro_round_ratio"] = (
        _ratio(rounds["macro_rounds"], rounds["macro_rounds"] + rounds["fixed_rounds"]), 1)
    caches = first["caches"]
    out["topo.alloc.cache_hits"] = (caches["alloc_hits"], 1)
    out["topo.alloc.cache_misses"] = (caches["alloc_misses"], 1)
    out["topo.alloc.cache_hit_ratio"] = (
        _ratio(caches["alloc_hits"], caches["alloc_hits"] + caches["alloc_misses"]), 1)
    out["service.policies.plan_cache_hits"] = (caches["plan_hits"], 1)
    out["service.policies.plan_cache_misses"] = (caches["plan_misses"], 1)
    out["service.policies.plan_cache_hit_ratio"] = (
        _ratio(caches["plan_hits"], caches["plan_hits"] + caches["plan_misses"]), 1)
    out["service.simulate.deadline_miss_rate"] = (
        pooled_sim([first])["sim_deadline_miss_rate"], 1)
    pooled = [d["pooled"] for d in traced if "pooled" in d]
    if pooled:
        out["service.fleet.route_requests.s"] = (
            statistics.median([p["layers"]["service.fleet.route_requests"]["s"] for p in pooled]), n)
        out["service.fleet.shard_wall_sum_s"] = (
            statistics.median([p["shard_wall_sum_s"] for p in pooled]), n)
        out["service.fleet.shard_wall_max_s"] = (
            statistics.median([p["shard_wall_max_s"] for p in pooled]), n)
        out["service.fleet.dispatch_overhead_s"] = (
            statistics.median([p["wall_s"] - p["shard_wall_max_s"] for p in pooled]), n)
        out["service.fleet.parallel_efficiency"] = (
            statistics.median([p["shard_wall_sum_s"] / (p["workers"] * p["wall_s"])
                     for p in pooled]), n)
    else:
        for key in ("route_requests.s", "shard_wall_sum_s", "shard_wall_max_s",
                    "dispatch_overhead_s", "parallel_efficiency"):
            out[f"service.fleet.{key}"] = (0.0, n)
    both = traced + plain
    out["repro.import_s"] = (statistics.median([d["import_s"] for d in both]), len(both))
    out["service.requests.workload_s"] = (
        statistics.median([d["workload_s"] for d in both]), len(both))
    out["topo.build_s"] = (statistics.median([d["topology_s"] for d in both]), len(both))
    out["trace.day_wall_s"] = (statistics.median([d["wall_s"] for d in traced]), n)
    out["trace.unattributed_frac"] = (statistics.median([
        1.0 - sum(v["self_s"] for v in d["layers"].values()) / d["wall_s"]
        for d in traced
    ]), n)
    by_seed = {d["sub_seed"]: d["wall_s"] for d in plain}
    out["trace.overhead_frac"] = (statistics.median([
        d["wall_s"] / by_seed[d["sub_seed"]] - 1.0 for d in traced
    ]), n)
    assert set(out) == set(LAYER_METRICS), sorted(set(out) ^ set(LAYER_METRICS))
    return out


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[dict]]:
    """Untraced/traced pairs on successive sub-days until ``seconds``
    pass. A fleet's untraced twin runs inline like its traced day."""
    seeds = sub_seeds(seed)
    fleet = WORKLOADS[name].kind == "fleet"
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while len(traced) < MIN_TRACED_DAYS or time.monotonic() - start < seconds:
        s = seeds[len(traced) % SUB_DAYS]
        plain.append(child("plain", name, s, workers=1 if fleet else None))
        traced.append(child("traced", name, s))
    return layer_metrics(traced, plain), plain, traced


def layer_table(traced: list[dict]) -> list[str]:
    """Self time per layer of the first traced day, remainder included."""
    day = traced[0]
    wall = day["wall_s"]
    lines = [f"  per-layer self time, sub-day {day['sub_seed']} "
             f"(traced day wall {wall:.3f} s):",
             f"    {'span':<36s} {'calls':>9s} {'incl s':>9s} {'self s':>9s} {'self %':>7s}"]
    rows = sorted(day["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for span, row in rows:
        lines.append(f"    {span:<36s} {row['calls']:>9d} {row['s']:>9.3f} "
                     f"{row['self_s']:>9.3f} {100 * row['self_s'] / wall:>6.1f}%")
    rest = wall - sum(row["self_s"] for _, row in rows)
    lines.append(f"    {'(unattributed)':<36s} {'':>9s} {'':>9s} "
                 f"{rest:>9.3f} {100 * rest / wall:>6.1f}%")
    return lines


def run(args) -> int:
    name = args.workload
    failures: list[str] = []
    days: list[dict] = []
    lines: list[str] = []
    metrics: dict[str, tuple[float, int]] = {}
    units: dict[str, str] = {}
    try:
        gate = child("gate", name, sub_seeds(args.seed)[0])
        check_gate(gate, failures)
        days.append(gate)
        if args.trace:
            metrics, plain, traced = measure_traced(name, args.seed, args.seconds)
            days += plain + traced
            units = {k: v[0] for k, v in LAYER_METRICS.items()}
            lines += layer_table(traced)
        else:
            result, plain = measure_plain(name, args.seed, args.seconds)
            days += plain
            metrics = result["metrics"]
            units = E2E_UNITS
            sim = result["sim"]
            _check(sim["slowdown_above_p95"] >= 10,
                   f"only {sim['slowdown_above_p95']} jobs above p95", failures)
            lines.append(
                f"  simulated over {sim['sub_days']} sub-days: {sim['jobs']} jobs, "
                f"{sim['slowdown_above_p95']} above p95, deadline miss rate "
                f"{sim['sim_deadline_miss_rate']:.4f} "
                f"({sim['deadline_misses']} misses)")
        for i, day in enumerate(days):
            check_day(day, f"day {i} (sub-seed {day['sub_seed']})", failures)
        check_digests(days, failures)
    except (GateFailure, subprocess.TimeoutExpired) as exc:
        failures.append(str(exc))
    attempted = sum(d["jobs"] for d in days) or 1
    failed = sum(d["unfinished"] for d in days)
    correct = not failures
    print(f"perfbench {name} seed={args.seed} trace={args.trace}: "
          f"{len(days)} days, {attempted} simulated jobs")
    for key in units:
        if key in metrics:
            value, count = metrics[key]
            print(f"  {key:<40s} {value:>14.6g} {units[key]:<7s} n={count}")
    for line in lines:
        print(line)
    for message in failures:
        print(f"  CHECK FAILED: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key][0], "unit": unit}
            for key, unit in units.items()
            if key in metrics
        },
    }))
    return 0 if correct else 1


def evidence(seeds: list[int]) -> int:
    """Regime evidence for each workload on the given benchmark seeds
    (first sub-day of each), written to ``perfbench/regimes.json``."""
    rows: dict[str, dict] = {}
    for seed in seeds:
        for name in WORKLOADS:
            day = child("traced", name, sub_seeds(seed)[0])
            layers = day["layers"]
            sim = pooled_sim([day])
            rows.setdefault(name, {})[str(seed)] = {
                "sim_j_per_gb": sim["sim_j_per_gb"],
                "sim_p50_slowdown": sim["sim_p50_slowdown"],
                "sim_p95_slowdown": sim["sim_p95_slowdown"],
                "sim_deadline_miss_rate": sim["sim_deadline_miss_rate"],
                "topo.alloc.refill.calls": layers.get("topo.alloc.refill", {}).get("calls", 0),
                "topo.placement.place.calls": layers.get("topo.placement.place", {}).get("calls", 0),
                "netsim.multi.run_until.calls": layers["netsim.multi.run_until"]["calls"],
            }
    checks = {}
    for seed in map(str, seeds):
        p2p = rows["day-p2p"][seed]["sim_j_per_gb"]
        checks[seed] = {
            "overload_j_per_gb_ge_5x_p2p":
                rows["day-overload"][seed]["sim_j_per_gb"] >= 5 * p2p,
            "topo_calls_only_on_day_fabric": all(
                (rows[name][seed]["topo.alloc.refill.calls"] > 0
                 and rows[name][seed]["topo.placement.place.calls"] > 0)
                == (name == "day-fabric")
                for name in WORKLOADS
            ),
            "fleet_steady_p50_slowdown_lt_1.5":
                rows["fleet-steady"][seed]["sim_p50_slowdown"] < 1.5,
        }
    doc = {
        "workloads": {name: w.describe() for name, w in WORKLOADS.items()},
        "sub_days_per_seed": SUB_DAYS,
        "evidence_sub_day": "first sub-day (workload seed 1000 n) of benchmark seed n",
        "evidence": rows,
        "checks": checks,
    }
    (HERE / "regimes.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(checks, indent=2))
    return 0 if all(all(c.values()) for c in checks.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run every workload "
                             "in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--evidence", default=None,
                        help="comma-separated seeds: write perfbench/regimes.json")
    args = parser.parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if args.evidence is not None:
        return evidence([int(s) for s in args.evidence.split(",")])
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        codes = [run(argparse.Namespace(**{**vars(args), "workload": name}))
                 for name in WORKLOADS]
        return max(codes)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
