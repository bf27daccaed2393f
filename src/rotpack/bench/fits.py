"""Exponential cost-scaling fits and the clock-rate crossover estimate.

Costs that grow like exp(A * M) are fit by ordinary least squares of
ln(cost) against the qubit count M. The crossover estimate converts two
such fits into wall-clock lines using device rates (operations per second)
and solves for the size where the projected quantum time undercuts the
classical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ScalingFit",
    "fit_scaling",
    "default_fit_start",
    "CrossoverEstimate",
    "estimate_crossover",
]


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def fit_scaling(
    points: Sequence[tuple[float, float]],
    *,
    fit_start_m: float | None = None,
) -> ScalingFit:
    """OLS of ln(cost) on qubit count.

    ``points`` are (num_qubits, cost) pairs; pairs below ``fit_start_m``
    are dropped before fitting (small sizes sit below the asymptotic
    trend). At least three points must remain.
    """
    kept = [
        (float(m), float(c))
        for m, c in points
        if fit_start_m is None or m >= fit_start_m
    ]
    if len(kept) < 3:
        raise ValueError(
            f"{len(kept)} points after the size cut; need at least 3"
        )
    for _, cost in kept:
        if cost <= 0:
            raise ValueError("costs must be positive to fit in log space")
    # scipy.stats takes a third of a second to import; only fits need it
    from scipy.stats import linregress

    xs = [m for m, _ in kept]
    ys = [math.log(c) for _, c in kept]
    res = linregress(xs, ys)
    return ScalingFit(
        slope=float(res.slope),
        intercept=float(res.intercept),
        slope_stderr=float(res.stderr),
        r_squared=float(res.rvalue) ** 2,
        points=tuple(kept),
    )


def default_fit_start(series: str) -> int:
    """Size cut used when the caller does not pin one.

    Exact statevector runs stay cheap enough to trend early; sampled
    backends and annealing need slightly larger instances before the
    exponential regime shows.
    """
    return 15 if "statevector" in series else 18


@dataclass(frozen=True)
class CrossoverEstimate:
    crossover_m: float | None
    interval: tuple[float, float] | None
    marker: str


def _corner_crossover(
    a_q: float, b_q: float, a_c: float, b_c: float
) -> float:
    if a_c <= a_q:
        return math.inf
    return (b_q - b_c) / (a_c - a_q)


def estimate_crossover(
    quantum: ScalingFit,
    classical: ScalingFit,
    *,
    cpu_rate_hz: float,
    qpu_rate_hz: float,
) -> CrossoverEstimate:
    """Size at which projected quantum wall time drops below classical.

    Wall time per side is cost divided by the device rate, so in log space
    the lines are (intercept - ln rate) + slope * M and the crossing sits
    at M* = [(b_q - ln r_q) - (b_c - ln r_c)] / (A_c - A_q). The interval
    re-solves at the four slope +/- stderr corners; a corner where the
    classical slope does not exceed the quantum one pushes the upper end
    to infinity. Identical lines are flagged degenerate, and a classical
    slope at or below the quantum one means no finite crossover exists.
    """
    if cpu_rate_hz <= 0 or qpu_rate_hz <= 0:
        raise ValueError("device rates must be positive")
    b_q = quantum.intercept - math.log(qpu_rate_hz)
    b_c = classical.intercept - math.log(cpu_rate_hz)
    a_q, a_c = quantum.slope, classical.slope

    if a_c == a_q and b_c == b_q:
        return CrossoverEstimate(None, None, "degenerate")
    if a_c <= a_q:
        return CrossoverEstimate(None, None, "unbounded")

    center = (b_q - b_c) / (a_c - a_q)
    corners = [
        _corner_crossover(a_q + sq * quantum.slope_stderr, b_q,
                          a_c + sc * classical.slope_stderr, b_c)
        for sq in (-1.0, 1.0)
        for sc in (-1.0, 1.0)
    ]
    return CrossoverEstimate(center, (min(corners), max(corners)), "ok")
