"""Finite-window numeric screens for periodicity and almost periodicity.

None of these certify a function class: they sample deviations on explicit
windows and grids (recorded in every report) and straddle the integers,
where the objects of interest are allowed to jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowTooSmallError

_STRADDLE = 1e-9


def _window_of(target, window) -> tuple[float, float]:
    if window is not None:
        a, b = window
        return float(a), float(b)
    if hasattr(target, "n0"):
        return float(target.n0), float(target.n1)
    raise ValueError("a (a, b) window is required for signal targets")


def _straddles(points: np.ndarray, a: float, b: float) -> np.ndarray:
    ts = np.concatenate([points - _STRADDLE, points + _STRADDLE])
    return ts[(a <= ts) & (ts <= b)]


def _grid_with_straddles(a: float, b: float, step: float) -> np.ndarray:
    ints = np.arange(math.ceil(a), math.floor(b) + 1)
    return np.unique(np.concatenate([np.arange(a, b, step), [b], _straddles(ints, a, b)]))


@dataclass(frozen=True)
class PeriodicityVerdict:
    passed: bool
    deviation: float
    period: tuple[int, int]
    period_value: float
    tol: float
    window: tuple[float, float]
    grid_points: int

    def __str__(self) -> str:
        state = "pass" if self.passed else "fail"
        return (f"periodicity at {self.period[0]}/{self.period[1]}: {state} "
                f"(sup deviation {self.deviation:.3e}, tol {self.tol:.1e})")


def periodicity_check(target, period: tuple[int, int], tol: float,
                      window: tuple[float, float] | None = None,
                      grid_step: float = 1e-3) -> PeriodicityVerdict:
    """sup over a straddled grid of |x(t + p0/q0) - x(t)| versus tol.

    The grid also straddles the integers shifted by the period so both
    lateral limits of x(t + period) are probed.
    """
    p0, q0 = int(period[0]), int(period[1])
    if q0 <= 0 or p0 <= 0:
        raise ValueError("period must be a pair of positive integers")
    omega = p0 / q0
    a, b = _window_of(target, window)
    if b - a < 2.0 * omega:
        raise WindowTooSmallError(
            f"window [{a}, {b}] does not cover two periods of {omega:.6g}"
        )

    # with the straddles of t + period back-shifted onto the base grid
    back = np.arange(math.ceil(a + omega), math.floor(b) + 1) - omega
    grid = np.unique(np.concatenate([_grid_with_straddles(a, b - omega, grid_step),
                                     _straddles(back, a, b - omega)]))

    base = target.evaluate_grid(grid)
    shifted = target.evaluate_grid(grid + omega)
    deviation = float(np.max(np.abs(shifted - base))) if grid.size else 0.0
    return PeriodicityVerdict(deviation < tol, deviation, (p0, q0), omega,
                              tol, (a, b), int(grid.size))


@dataclass(frozen=True)
class AlmostPeriodReport:
    epsilon: float
    tested_shifts: tuple[float, ...]
    passing_shifts: tuple[float, ...]
    deviations: tuple[float, ...]
    window_radius: float
    grid_step: float
    relative_density: float

    def __str__(self) -> str:
        return (f"{len(self.passing_shifts)}/{len(self.tested_shifts)} shifts "
                f"pass at eps = {self.epsilon:.3g} "
                f"(density {self.relative_density:.3f}, window "
                f"{self.window_radius}, grid {self.grid_step})")


def almost_period_scan(target, epsilon: float, shift_range: int,
                       integer_shifts_only: bool = True,
                       window: tuple[float, float] | None = None,
                       grid_step: float = 1e-2,
                       real_shift_step: float = 0.1) -> AlmostPeriodReport:
    """Scan candidate shifts for eps-almost-periods on a finite window.

    Integer shifts honor the integer-restricted shift structure of the
    signal classes at play; the real grid is available for comparison.
    Trajectory targets shrink the sampled window so t and t + s both stay
    inside the solved range.
    """
    if shift_range < 1:
        raise ValueError("shift_range must be at least 1")
    a, b = _window_of(target, window)
    if integer_shifts_only:
        shifts = [float(s) for s in range(-shift_range, shift_range + 1)]
    else:
        shifts = list(np.arange(-shift_range, shift_range + real_shift_step / 2,
                                real_shift_step))

    tested: list[float] = []
    passing: list[float] = []
    deviations: list[float] = []
    bounded_target = hasattr(target, "n0")
    for s in shifts:
        lo, hi = a, b
        if bounded_target:
            lo, hi = max(a, a - s), min(b, b - s)
            if hi - lo < 1.0:
                continue
        ts = _grid_with_straddles(lo, hi, grid_step)
        dev = float(np.max(np.abs(target.evaluate_grid(ts + s)
                                  - target.evaluate_grid(ts))))
        tested.append(s)
        deviations.append(dev)
        if dev < epsilon:
            passing.append(s)

    density = len(passing) / len(tested) if tested else 0.0
    return AlmostPeriodReport(epsilon, tuple(tested), tuple(passing),
                              tuple(deviations), float(max(abs(a), abs(b))),
                              grid_step, density)
