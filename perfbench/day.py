"""Run one seeded service day in a fresh interpreter and report it.

``run.py`` starts this script once per measured day, so every day pays
a cold ``import repro`` and starts with cold plan and allocation caches,
as a CLI user does. It prints one JSON object on stdout.

Modes:

* ``plain`` — the untraced day: set-up timings, the host wall of the
  ``run()`` call, peak resident memory (pool workers included) and the
  simulated outcome.
* ``traced`` — the same day with :class:`tracer.Tracer` wrapped around
  every layer's entry points; a fleet day runs inline (``workers=1``)
  for the shard breakdown, then pooled with only the fleet dispatcher
  traced.
* ``gate`` — the correctness oracle: the fast driver against the
  dt-grid loop (``fast=False``) on a leading slice of the day, and a
  full inline replay whose delivered bytes are counted engine by
  engine.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

_SPAWN_CLOCK = time.monotonic()

from workloads import (  # noqa: E402 - the spawn clock is read first
    WORKLOADS,
    build_inputs,
    make_simulator,
    outcome_digest,
    report_jobs,
)


#: Requests in the leading slice the fast-vs-grid oracle replays (the
#: dt-grid loop is too slow for a whole day).
ORACLE_SLICE_JOBS = 24


def _import_repro() -> float:
    """Import the package and the layers a day touches; host seconds."""
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.service  # noqa: F401
    import repro.topo  # noqa: F401

    return time.perf_counter() - start


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ChildPeakSampler:
    """Polls the peak RSS of this process's pool workers while a day
    runs (their own high-water marks, so only the last few
    milliseconds of a worker's life can be missed)."""

    def __init__(self, period_s: float = 0.01) -> None:
        self.period_s = period_s
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        import multiprocessing

        while not self._stop.is_set():
            for child in multiprocessing.active_children():
                kb = _vm_hwm_kb(child.pid)
                if kb > self.peaks.get(child.pid, 0):
                    self.peaks[child.pid] = kb
            self._stop.wait(self.period_s)

    def __enter__(self) -> "ChildPeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class EngineLedger:
    """Collects every ``TransferEngine`` built in this process, so the
    bytes it delivered can be summed after the day."""

    def __init__(self) -> None:
        from repro.netsim.engine import TransferEngine

        self.engines: list = []
        self._cls = TransferEngine
        self._init = TransferEngine.__init__
        ledger = self

        def init(engine, *args, **kwargs):
            ledger._init(engine, *args, **kwargs)
            ledger.engines.append(engine)

        TransferEngine.__init__ = init

    def close(self) -> None:
        self._cls.__init__ = self._init

    def delivered_bytes(self) -> float:
        return sum(
            state.bytes_done
            for engine in self.engines
            for state in engine.chunks.values()
        )


def _outcome(report, requests) -> dict:
    """The day's simulated outcome as raw totals (``run.py`` pools
    them across sub-days) plus its bit-exact digest."""
    jobs = report_jobs(report)
    with_deadline = [job for job in jobs if job.deadline is not None]
    return {
        "jobs": len(jobs),
        "unfinished": sum(not job.finished for job in jobs),
        "truncated": bool(report.truncated),
        "total_bytes": sum(job.total_bytes for job in jobs),
        "requested_bytes": sum(request.total_bytes for request in requests),
        "energy_j": sum(job.energy_j for job in jobs),
        "cost_usd": sum(job.cost_usd for job in jobs),
        "slowdowns": [job.slowdown() for job in jobs if job.finished],
        "deadline_jobs": len(with_deadline),
        "deadline_misses": sum(job.deadline_missed for job in with_deadline),
        "digest": outcome_digest(report),
    }


def _peak_rss_mb(child_peaks_kb: dict[int, int]) -> float:
    import resource

    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(child_peaks_kb.values())) / 1024.0


def run_plain(workload, seed: int, workers) -> dict:
    import_s = _import_repro()
    inputs, timings = build_inputs(workload, seed)
    setup_s = time.monotonic() - _SPAWN_CLOCK
    simulator = make_simulator(workload, inputs, workers=workers)
    pooled = workload.kind == "fleet" and (workers or workload.workers or 1) > 1
    ledger = None if pooled else EngineLedger()
    sampler = ChildPeakSampler()
    with sampler:
        start = time.perf_counter()
        report = simulator.run(inputs["requests"], on_timeout="report")
        wall_s = time.perf_counter() - start
    out = {
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(sampler.peaks),
        "delivered_bytes": None if ledger is None else ledger.delivered_bytes(),
        **timings,
        **_outcome(report, inputs["requests"]),
    }
    if ledger is not None:
        ledger.close()
    return out


def _cache_counters() -> dict:
    from repro.service import plan_cache_info
    from repro.topo import alloc_cache_info

    plan = plan_cache_info()
    alloc = alloc_cache_info()
    return {
        "plan_hits": plan["hits"],
        "plan_misses": plan["misses"],
        "alloc_hits": alloc.hits,
        "alloc_misses": alloc.misses,
    }


def _clear_caches() -> None:
    from repro.service import plan_cache_clear
    from repro.topo import alloc_cache_clear

    plan_cache_clear()
    alloc_cache_clear()


def run_traced(workload, seed: int, spans_dir: str) -> dict:
    from pathlib import Path

    from repro.service import policy_by_name
    from tracer import FLEET_POINTS, LAYER_POINTS, Tracer

    import_s = _import_repro()
    inputs, timings = build_inputs(workload, seed)
    policy = policy_by_name(workload.policy)
    tracer = Tracer(run_id=seed)
    tracer.install(LAYER_POINTS + (FLEET_POINTS if workload.kind == "fleet" else ()))
    tracer.patch(policy, "schedule", "service.scheduler.schedule")
    ledger = EngineLedger()
    simulator = make_simulator(workload, inputs, workers=1, policy=policy)
    start = time.perf_counter()
    report = simulator.run(inputs["requests"], on_timeout="report")
    wall_s = time.perf_counter() - start
    tracer.uninstall()
    ledger.close()
    out = {
        "import_s": import_s,
        "wall_s": wall_s,
        "layers": tracer.stats(),
        "rounds": dict(tracer.rounds),
        "caches": _cache_counters(),
        "delivered_bytes": ledger.delivered_bytes(),
        **timings,
        **_outcome(report, inputs["requests"]),
    }
    tracer.save(
        Path(spans_dir) / f"spans-{workload.name}-{seed}.json",
        {"workload": workload.name, "seed": seed, "wall_s": wall_s},
    )
    if workload.kind == "fleet" and (workload.workers or 1) > 1:
        # the pooled day: shard internals run in the workers, so only
        # the dispatcher is traced here
        _clear_caches()
        fleet_tracer = Tracer(run_id=seed)
        fleet_tracer.install(FLEET_POINTS)
        pooled = make_simulator(workload, inputs)
        start = time.perf_counter()
        pooled_report = pooled.run(inputs["requests"], on_timeout="report")
        pooled_wall_s = time.perf_counter() - start
        fleet_tracer.uninstall()
        shard_walls = [shard.wall_s for shard in pooled_report.shards]
        out["pooled"] = {
            "wall_s": pooled_wall_s,
            "workers": workload.workers,
            "layers": fleet_tracer.stats(),
            "shard_wall_sum_s": sum(shard_walls),
            "shard_wall_max_s": max(shard_walls),
            "digest": outcome_digest(pooled_report),
        }
    return out


def _leading_slice(requests, n: int) -> list:
    return sorted(requests, key=lambda r: (r.submit_time, r.name))[:n]


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def run_gate(workload, seed: int) -> dict:
    """Fast vs dt-grid on a leading slice, then a full inline replay."""
    _import_repro()
    inputs, _timings = build_inputs(workload, seed)
    sliced = _leading_slice(inputs["requests"], ORACLE_SLICE_JOBS)
    fast = make_simulator(workload, inputs, workers=1).run(sliced, on_timeout="report")
    grid = make_simulator(workload, inputs, fast=False, workers=1).run(
        sliced, on_timeout="report"
    )
    fast_jobs, grid_jobs = report_jobs(fast), report_jobs(grid)
    times_equal = [
        (a.name, a.submitted_at, a.admitted_at, a.completed_at)
        == (b.name, b.submitted_at, b.admitted_at, b.completed_at)
        for a, b in zip(fast_jobs, grid_jobs, strict=True)
    ]
    energy_err = max(
        _rel_err(a.energy_j, b.energy_j) for a, b in zip(fast_jobs, grid_jobs)
    )
    cost_err = max(
        _rel_err(a.cost_usd, b.cost_usd) for a, b in zip(fast_jobs, grid_jobs)
    )
    ledger = EngineLedger()
    replay = make_simulator(workload, inputs, workers=1).run(
        inputs["requests"], on_timeout="report"
    )
    ledger.close()
    return {
        "slice_jobs": len(sliced),
        "slice_finished": sum(job.finished for job in fast_jobs + grid_jobs),
        "slice_times_bitequal": all(times_equal),
        "slice_energy_rel_err": energy_err,
        "slice_cost_rel_err": cost_err,
        "delivered_bytes": ledger.delivered_bytes(),
        **_outcome(replay, inputs["requests"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("plain", "traced", "gate"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started "
                             "this interpreter (set-up time origin)")
    parser.add_argument("--workers", type=int, default=None,
                        help="override a fleet day's pool size")
    parser.add_argument("--spans-dir", default=".perfbench")
    args = parser.parse_args(argv)
    global _SPAWN_CLOCK
    if args.spawned_at is not None:
        _SPAWN_CLOCK = args.spawned_at
    workload = WORKLOADS[args.workload]
    if args.mode == "plain":
        out = run_plain(workload, args.seed, args.workers)
    elif args.mode == "traced":
        out = run_traced(workload, args.seed, args.spans_dir)
    else:
        out = run_gate(workload, args.seed)
    json.dump(out, sys.stdout, allow_nan=False)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
