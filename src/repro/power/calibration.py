"""Power-model building (the paper's one-time calibration phase).

Section 2.2: "It requires a one time model building phase to extract
power consumption characteristics of the system components. For each
system component (i.e. CPU, memory, disk and NIC), we measure the power
consumption values for varying load levels. Then, linear regression is
applied to derive the coefficients for each component metric."

This module reproduces that phase end-to-end against a *simulated*
power meter: generate component load sweeps, "measure" power (ground
truth + meter noise), fit the component coefficients with least
squares, and quantify model error the same way the paper does
(percentage error against measured power).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.netsim.endpoint import ServerSpec
from repro.netsim.utilization import Utilization
from repro.power.coefficients import CoefficientSet, cpu_coefficient

__all__ = [
    "CalibrationSample",
    "generate_load_sweep",
    "fit_coefficients",
    "fit_cpu_quadratic",
    "mean_absolute_percentage_error",
]


@dataclass(frozen=True)
class CalibrationSample:
    """One calibration observation: utilizations + measured watts."""

    utilization: Utilization
    measured_watts: float


def generate_load_sweep(
    spec: ServerSpec,
    true_coefficients: CoefficientSet,
    *,
    active_cores: int = 1,
    levels: Sequence[float] = tuple(np.linspace(5, 100, 20)),
    noise_fraction: float = 0.02,
    seed: int = 0,
) -> list[CalibrationSample]:
    """Synthetic calibration run: sweep each component across ``levels``.

    Mirrors the paper's methodology: one component is exercised at a
    time (with a small correlated background on the others, as real
    load generators cause), and a power meter records watts with
    ``noise_fraction`` relative noise.
    """
    if active_cores < 1 or active_cores > spec.cores:
        raise ValueError("active_cores must be in [1, spec.cores]")
    rng = np.random.default_rng(seed)
    samples: list[CalibrationSample] = []
    for component in ("cpu", "mem", "disk", "nic"):
        for level in levels:
            background = float(rng.uniform(1.0, 4.0))
            util = Utilization(
                cpu_pct=(level * active_cores if component == "cpu" else background),
                mem_pct=(level if component == "mem" else background),
                disk_pct=(level if component == "disk" else background),
                nic_pct=(level if component == "nic" else background),
                active_cores=active_cores,
                channels=max(1, active_cores),
                streams=max(1, active_cores),
                throughput=0.0,
            )
            true_watts = true_coefficients.scale * (
                true_coefficients.cpu(active_cores) * util.cpu_pct
                + true_coefficients.memory * util.mem_pct
                + true_coefficients.disk * util.disk_pct
                + true_coefficients.nic * util.nic_pct
            )
            measured = true_watts * (1.0 + float(rng.normal(0.0, noise_fraction)))
            samples.append(CalibrationSample(util, max(0.0, measured)))
    return samples


def fit_coefficients(
    samples: Iterable[CalibrationSample],
    *,
    active_cores: int = 1,
) -> tuple[float, CoefficientSet]:
    """Least-squares fit of Eq. 1 coefficients from calibration samples.

    All samples must come from runs with the same ``active_cores``.
    Returns ``(cpu_coefficient_at_n, CoefficientSet)`` where the
    returned set's quadratic is degenerate (constant at the fitted CPU
    coefficient); use :func:`fit_cpu_quadratic` across several core
    counts to recover Eq. 2 itself.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one calibration sample")
    design = np.array(
        [
            [s.utilization.cpu_pct, s.utilization.mem_pct, s.utilization.disk_pct, s.utilization.nic_pct]
            for s in samples
        ]
    )
    target = np.array([s.measured_watts for s in samples])
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    cpu_at_n, mem, disk, nic = (float(v) for v in solution)
    fitted = CoefficientSet(
        cpu_a=0.0,
        cpu_b=0.0,
        cpu_c=cpu_at_n,
        memory=max(0.0, mem),
        disk=max(0.0, disk),
        nic=max(0.0, nic),
        scale=1.0,
    )
    return cpu_at_n, fitted


def fit_cpu_quadratic(per_core_coefficients: dict[int, float]) -> tuple[float, float, float]:
    """Fit Eq. 2's quadratic ``a n^2 + b n + c`` through per-core-count
    CPU coefficients obtained from separate calibration runs."""
    if len(per_core_coefficients) < 3:
        raise ValueError("need coefficients for at least 3 core counts")
    ns = np.array(sorted(per_core_coefficients))
    cs = np.array([per_core_coefficients[int(n)] for n in ns])
    a, b, c = np.polyfit(ns, cs, deg=2)
    return float(a), float(b), float(c)


def mean_absolute_percentage_error(
    predict: Callable[[Utilization], float],
    samples: Iterable[CalibrationSample],
) -> float:
    """MAPE (%) of ``predict`` against measured watts — the error metric
    of the paper's validation tables."""
    errors = []
    for sample in samples:
        if sample.measured_watts <= 0:
            continue
        predicted = predict(sample.utilization)
        errors.append(abs(predicted - sample.measured_watts) / sample.measured_watts)
    if not errors:
        raise ValueError("no usable samples")
    return 100.0 * float(np.mean(errors))
