"""Monotone explicit finite differences for the limiting nonlinear PDE.

Initial-value form:

    dv/dt = inf_a [ 1/2 tr(sigma(a) sigma(a)^T D^2 v) + <b(a, x), grad v> ]
            + m * ||grad v||

with the affine drift b(a) - theta(a) x (the constant b(a) for Brownian
motion, theta = 0).  Diffusion uses centered second differences,
drift is upwinded by sign, and the gradient-magnitude source uses the
monotone Godunov selector per axis

    g = max(0, -D^- v, D^+ v),

combined across axes by the Euclidean norm.  This orientation makes the
update nondecreasing in every neighbor value for the +m||grad v|| source
(neighbors can only push a node up), which is the defining monotonicity
property; the explicit step is stable under the CFL bound below.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .fields import Grid, ScalarField, csv_columns, gradient_fd, write_rows
from .operators import OperatorConfig

Array = np.ndarray

# the most explicit steps one solve may take: a horizon of about 800 on the
# default grid, marched in minutes
MAX_STEPS = 2 ** 20


@dataclass
class SpaceTimeField:
    """Snapshots of one ``solve``, with the step it marched with (``dt``,
    shortened only to land on a snapshot time) and the steps it took."""

    grid: Grid
    times: List[float]
    snapshots: List[ScalarField]
    dt: float
    steps: int

    def __post_init__(self):
        if len(self.times) != len(self.snapshots):
            raise InputError("one snapshot per time required")

    def at(self, t: float) -> ScalarField:
        i = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise InputError(f"no snapshot recorded at t={t}")
        return self.snapshots[i]

    def save_csv(self, path) -> None:
        """``t,x[,y],value`` rows, one block per snapshot."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + csv_columns(self.grid))
            for t, snap in zip(self.times, self.snapshots):
                write_rows(w, snap, prefix=[repr(float(t))])


def _coefficients(cfg: OperatorConfig) -> List[Tuple[Array, List[Array]]]:
    """Per action the diagonal of sigma sigma^T and, per axis, the drift
    b - theta x at every node; rejects cross terms in 2-d (monotone
    discretization of mixed derivatives is out of scope)."""
    coords = cfg.grid.mesh()
    out = []
    for act in cfg.model.actions:
        ssT = act.sigma @ act.sigma.T
        diag = np.diag(ssT).copy()
        if np.abs(ssT - np.diag(diag)).max() > 1e-12 * max(1.0, abs(ssT).max()):
            raise InputError("2-d solver requires diagonal sigma sigma^T")
        drift = []
        for ax in range(cfg.grid.dim):
            vals = np.full(cfg.grid.shape, act.drift[ax])
            for theta, c in zip(act.theta[ax], coords):
                vals -= theta * c
            drift.append(vals)
        out.append((diag, drift))
    return out


def _cfl_bound(cfg: OperatorConfig, cfl_safety: float, coeffs) -> float:
    if not 0 < cfl_safety <= 1:
        raise InputError("cfl_safety must lie in (0, 1]")
    denom = 0.0
    for ax in range(cfg.grid.dim):
        h = cfg.grid.spacing[ax]
        max_diff = max(d[ax] for d, _ in coeffs)
        max_drift = max(float(np.max(np.abs(b[ax]))) for _, b in coeffs)
        denom += max_diff / h ** 2 + (max_drift + cfg.m) / h
    if denom == 0.0:
        return np.inf
    return cfl_safety / denom


def cfl_time_step(cfg: OperatorConfig, cfl_safety: float) -> float:
    """Largest dt with dt * [sum_ax max_a (ssT)_aa / h_ax^2
    + sum_ax (max_a |b_ax| + m) / h_ax] <= cfl_safety."""
    return _cfl_bound(cfg, cfl_safety, _coefficients(cfg))


def _differences(v: Array, grid: Grid) -> List[Tuple[Array, Array, Array]]:
    """Per axis the forward, backward and second differences of v, with a
    clamped (edge-replicated) boundary."""
    padded = np.pad(v, 1, mode="edge")
    out = []
    for ax in range(v.ndim):
        sl = [slice(1, -1)] * v.ndim
        sl[ax] = slice(2, None)
        up = padded[tuple(sl)]
        sl[ax] = slice(0, -2)
        dn = padded[tuple(sl)]
        h = grid.spacing[ax]
        out.append(((up - v) / h, (v - dn) / h, (up - 2 * v + dn) / h ** 2))
    return out


def _inf_over_actions(coeffs, term: Callable[[Array, List[Array], int], Array]) -> Array:
    """min over actions of sum_ax term(diag, drift, ax)."""
    return functools.reduce(np.minimum, (
        sum(term(d, b, ax) for ax in range(len(d))) for d, b in coeffs
    ))


def generator_apply(cfg: OperatorConfig, f: ScalarField) -> ScalarField:
    """Central-difference evaluation of inf_a L^a f + m ||grad f||.

    Diagnostic only: meaningful where f is smooth; the time stepper uses the
    upwind forms instead.
    """
    grads = [g.values for g in gradient_fd(f)]
    diffs = _differences(f.values, cfg.grid)
    best = _inf_over_actions(
        _coefficients(cfg), lambda d, b, ax: 0.5 * d[ax] * diffs[ax][2] + b[ax] * grads[ax]
    )
    grad_norm = np.sqrt(sum(g ** 2 for g in grads))
    return ScalarField(cfg.grid, best + cfg.m * grad_norm)


def step_forward(cfg: OperatorConfig, cfl_safety: float, v: ScalarField, dt: Optional[float] = None) -> ScalarField:
    """One explicit Euler step of size dt (defaults to the CFL bound)."""
    coeffs = _coefficients(cfg)
    bound = _cfl_bound(cfg, cfl_safety, coeffs)
    if dt is None:
        dt = bound
    if dt > bound * (1 + 1e-12):
        raise InputError(f"dt={dt} violates the CFL bound {bound}")
    vals = v.values
    diffs = _differences(vals, cfg.grid)

    def upwind(d, b, ax):
        dplus, dminus, second = diffs[ax]
        return 0.5 * d[ax] * second + np.maximum(b[ax], 0.0) * dplus + np.minimum(b[ax], 0.0) * dminus

    best = _inf_over_actions(coeffs, upwind)
    gsq = sum(np.maximum(0.0, np.maximum(-dminus, dplus)) ** 2 for dplus, dminus, _ in diffs)
    return ScalarField(cfg.grid, vals + dt * (best + cfg.m * np.sqrt(gsq)))


def time_step(cfg: OperatorConfig, cfl_safety: float, horizon: float) -> float:
    """The step ``solve`` marches with: the CFL bound, or the horizon where
    no bound applies.  InputError unless the horizon is nonnegative and
    finite and takes at most MAX_STEPS of them."""
    if not 0 <= horizon < np.inf:
        raise InputError("horizon must be nonnegative and finite")
    dt = cfl_time_step(cfg, cfl_safety)
    if not np.isfinite(dt):
        return horizon if horizon > 0 else 1.0
    if horizon > MAX_STEPS * dt:
        raise InputError(f"horizon {horizon!r} takes more than {MAX_STEPS} time steps of {dt:.3g}")
    return dt


def snapshot_schedule(horizon: float, snapshot_times: Optional[Sequence[float]] = None) -> List[float]:
    """The distinct snapshot times and the horizon, ascending; InputError
    unless every time lies in [0, horizon]."""
    snaps = sorted(set(float(s) for s in (snapshot_times or [])) | {float(horizon)})
    if not all(0 <= s <= horizon + 1e-12 for s in snaps):
        raise InputError("snapshot times must lie in [0, horizon]")
    return snaps


def solve(
    cfg: OperatorConfig,
    cfl_safety: float,
    u0: ScalarField,
    horizon: float,
    snapshot_times: Optional[Sequence[float]] = None,
) -> SpaceTimeField:
    """March the initial condition to the horizon, recording snapshots.

    Snapshot times are hit exactly by shortening the step that would
    overshoot them (shorter steps keep the CFL bound).
    """
    dt = time_step(cfg, cfl_safety, horizon)
    snaps = snapshot_schedule(horizon, snapshot_times)
    times: List[float] = []
    fields: List[ScalarField] = []
    t = 0.0
    steps = 0
    v = u0
    for target in snaps:
        while t < target - 1e-12:
            step = min(dt, target - t)
            v = step_forward(cfg, cfl_safety, v, dt=step)
            t += step
            steps += 1
        t = target
        times.append(target)
        fields.append(v)
    return SpaceTimeField(cfg.grid, times, fields, dt, steps)
