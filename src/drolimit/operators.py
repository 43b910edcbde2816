"""One-period robust operators, their compositions, and the scaling limit.

Per grid node x and action a, one period of length t is the worst-case
expectation of f(psi_t^a(x) + z) over the Wasserstein ball of radius t*m
around the Gaussian quadrature law of Y_t^a; ``action_values`` gives it for
every action.  ``dro_step`` is the only step: the robust (worst case, best
action) operator takes the node-wise min over actions, the best-case
operator the max, and at m = 0 the ball is the reference law itself, so the
same step is the non-robust Bellman step.
Compositions over a partition apply the one-period operator over
the successive gaps, rightmost gap first; the scaling limit follows the
dyadic partition sequence, whose values decrease node-wise as the mesh is
refined.

Candidate destinations for the inner worst case live on a lattice of offsets
around each quadrature atom spanning [-REACH * r, REACH * r], REACH = 3.  To
first order the worst case moves atom y by r |grad f(y)|^(q-1) /
||grad f||_{L^q(mu)}^(q-1) along grad f (1/p + 1/q = 1; Bartl et al. 2021),
which exceeds three radii at the atoms where |grad f| is well above its
L^q(mu) mean over the node's atoms.  Those are mostly tail atoms of small
weight, but not rare: on the default ``limit`` run with a reach of 4, 4.0% of
the (atom, node) elements paid a run beyond 3r at their multiplier, holding
0.05% of the quadrature weight; at p = 1.5, 15% and 0.38%.  The lattice
truncates those moves.  The lattice spacing is proportional to the radius r
(a fixed number of points per side; the default 12 gives a step of r/4), so
the relative quality of the inner maximization is scale-free along the dyadic
refinement.  The refinement certificates of the validation module double
``cand_per_side`` at a fixed reach, so they audit the step, not the reach.

The kernels of one cache (every kernel of a ``compose``, or those an
``action_values`` caller's cache holds) share one (D, Q, *grid.shape) array of
run maxima per distinct shape, which every apply overwrites, so that the
largest array of a step is not allocated afresh on every step.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .dual import solve_batch, solve_window
from .errors import InputError
from .fields import (
    CompactWindow,
    Grid,
    ScalarField,
    ShiftStencil,
    Stencil,
    same_nodes,
    sup_distance,
)
from .models import Action, ReferenceModel, law, psi

Array = np.ndarray

MAX_LEVEL = 10  # each dyadic level doubles the cost of the one before
# the most gaps a dyadic partition may have: t <= 64 at MAX_LEVEL; one
# composition of that many default 1-d steps takes minutes
MAX_GAPS = 2 ** 16
REACH = 3.0  # the candidate lattice spans this many radii on each side


@dataclass(frozen=True)
class Partition:
    """Finite time grid 0 = t_0 < t_1 < ... < t_k."""

    times: Tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        if not ts or ts[0] != 0.0:
            raise InputError("partition must start at 0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InputError("partition times must be strictly increasing")

    @property
    def gaps(self) -> Tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))


def dyadic_partition(t: float, level: int) -> Partition:
    """{0, 2^-n, 2*2^-n, ..., k 2^-n, t} with k the largest k 2^-n < t;
    InputError for a level that is not a whole number, or beyond MAX_GAPS
    gaps."""
    if t < 0 or level < 0 or not float(level).is_integer():
        raise InputError(f"need t >= 0 and a whole level >= 0, got {t!r} and {level!r}")
    step = 2.0 ** (-level)
    if not t <= MAX_GAPS * step:
        raise InputError(f"t = {t!r} needs more than {MAX_GAPS} dyadic gaps at level {level}")
    k = int(np.floor(t / step))
    if k * step >= t:
        k -= 1
    times = [i * step for i in range(k + 1)] + [t]
    return Partition(tuple(times))


@dataclass(eq=False)
class OperatorConfig:
    """Everything a one-period application needs: the uncertainty rate
    m >= 0, so that a period of length t has the ball radius m t, and the
    Wasserstein order p in (1, inf)."""

    model: ReferenceModel
    m: float
    grid: Grid
    p: float = 2.0
    quad_order: int = 16
    cand_per_side: int = 12

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m >= 0):
            raise InputError(f"uncertainty rate m must be >= 0, got {self.m}")
        if not (np.isfinite(self.p) and self.p > 1):
            raise InputError(f"Wasserstein order p must be in (1, inf), got {self.p}")
        if self.model.dim != self.grid.dim:
            raise InputError("model and grid dimensions differ")
        if self.cand_per_side < 1:
            raise InputError("cand_per_side must be >= 1")


def _radius_offsets(radius: float, per_side: int, dim: int, p: float):
    """Candidate offsets around each atom and their transport costs, sorted
    by cost ascending from the free stay option; InputError unless every
    distance is finite and every cost but the stay's is finite and above 0."""
    if radius <= 0.0:
        return np.zeros((1, dim)), np.zeros(1)
    span = REACH * radius
    step = span / per_side
    line = step * np.arange(-per_side, per_side + 1)  # exact 0 at the center
    offs = np.stack(np.meshgrid(*[line] * dim, indexing="ij"), -1).reshape(-1, dim)
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(offs, axis=1)
    # the disk; in 1-d every offset, as |per_side * step| <= span up to rounding
    keep = dist <= span * (1 + 1e-12)
    costs = dist[keep] ** p
    order = np.argsort(costs, kind="stable")
    offs, costs = offs[keep][order], costs[order]
    if not (np.isfinite(dist).all() and np.all(costs[1:] > 0) and costs[-1] < np.inf):
        raise InputError(f"the candidate costs at radius {radius:.3g} and p = {p:g} overflow or"
                         " underflow; choose another ambiguity.m or ambiguity.p")
    return offs, costs


class _StepKernel:
    """Precomputed geometry of one (action, gap) period, reused across the
    steps of a composition: quadrature weights, the distinct candidate costs,
    and the stencil of the evaluation points (flowed nodes + atoms + offsets).

    For actions with theta = 0 (Brownian motion among them) the flow is the
    translation ``psi(x) = x + b dt``, so every node sees the same shifts
    ``b dt + atom + offset`` and the stencil is a ``ShiftStencil`` of
    Q * C shifts.  Flows with theta != 0 scale the nodes, so their stencil
    is a ``Stencil`` of all C * Q * N points.  Both stencils give the max
    over one run of candidates at a time through ``run_max``.

    ``_radius_offsets`` sorts the offsets by cost, so candidates of equal cost
    form runs; ``apply`` takes the max over each run before the dual solve.
    That is exact: for one cost c, max_k fl(g_k - lam c) = fl(max_k g_k - lam c),
    and ties still resolve toward the cheapest cost because the runs ascend.
    The run maxima are held run by run, (D, Q, N), the order in which
    ``solve_batch`` loops over candidates, so the dual solve copies nothing
    but the nodes still running once at most half of them run.  The kernel
    writes them into ``merged``, the array of its shape in ``run_maxima``, a
    dict from shapes to arrays that it shares with other kernels, so the next
    apply of any of those kernels overwrites them.  The dual solvers return
    fresh arrays, so no apply returns or keeps a view of them.

    A cold kernel solves every step from lam = 0 (``solve_batch``), so its
    output depends on its input alone.  A warm one keeps in ``lam`` and
    ``prev`` the (N,) multipliers its last two applies stopped at (None
    before them): ``compose`` applies its kernels to the output of the step
    before, which differs by O(dt), so each node's multiplier barely moves.
    Once both are set, from its third apply on, a warm kernel with a
    positive radius solves through ``solve_window``: four runs per element
    around the run it paid before, certified by one full evaluation of D,
    walked from the multipliers extrapolated over the last step.  It keeps
    in ``paid`` the (Q, N) run each element paid at the last windowed
    evaluation (None until the first).  A warm apply's output thus depends
    on the kernel's earlier applies, in rounding only.
    """

    __slots__ = (
        "weights", "costs", "runs", "merged", "stencil", "radius", "p", "warm", "lam", "prev",
        "paid",
    )

    def __init__(
        self, cfg: OperatorConfig, action: Action, dt: float,
        run_maxima: Dict[tuple, Array], warm: bool = False,
    ):
        meas = law(action, dt, cfg.quad_order)
        radius = cfg.m * dt
        shift = not np.any(action.theta)
        n, q, d = cfg.grid.num_nodes, len(meas.weights), cfg.grid.dim
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

        def refuse_beyond_memory(distinct: int, longest: int, cands: int):
            # the bytes one apply holds, at most, besides arrays the size of
            # the padded grid: the (D, Q, N) run maxima (8 per value) and the
            # at most half of them that ``solve_batch`` gathers when its
            # running nodes shrink (4 more), and its four (Q, N) temporaries.
            # ``run_max`` reads the longest run's rows at once in two arrays
            # for a 1-d shift stencil and in one for a point stencil; a 2-d
            # shift stencil folds one candidate and atom at a time and holds
            # none.  Point stencils add the index (4 bytes) and d fractions
            # (8 each) of every point, and warm kernels, per atom and node,
            # the stored run (8 bytes) and six (3, Q, N) arrays of
            # ``solve_window`` (8 each): the window's runs, values, costs and
            # breakpoints, and two temporaries of its walk
            held = (2 if d == 1 else 0) if shift else 1
            need = 12 * n * q * distinct + 8 * n * q * (4 + held * longest)
            if not shift:
                need += (4 + 8 * d) * n * q * cands
            if warm:
                need += (8 + 6 * 3 * 8) * n * q
            if need > have:
                raise InputError(
                    f"one step needs {need / 1e9:.1f} GB of evaluation points, more than"
                    f" the {have / 1e9:.1f} GB of physical memory; lower grid.n,"
                    " numerics.quad_order or numerics.cand_per_side"
                )

        if radius > 0.0:
            # the axis offsets k step, k = 0..per_side, cost per_side + 1
            # distinct amounts: refuse before building a lattice that large
            refuse_beyond_memory(cfg.cand_per_side + 1, 1, cfg.cand_per_side + 1)
        offs, costs = _radius_offsets(radius, cfg.cand_per_side, d, cfg.p)
        starts = np.flatnonzero(np.diff(costs, prepend=-1.0))
        ends = np.append(starts[1:], len(costs))
        refuse_beyond_memory(len(starts), int(np.max(ends - starts)), len(costs))
        if shift:
            flow = psi(action, dt, np.zeros(d))
            self.stencil = ShiftStencil(
                cfg.grid, (flow + meas.atoms)[None, :, :] + offs[:, None, :]
            )
        else:
            base = psi(action, dt, cfg.grid.nodes())                     # (N, d)
            near = meas.atoms[:, None, :] + base[None, :, :]             # (Q, N, d)
            # (C, Q, *grid.shape), so that each run of equal cost is one
            # contiguous block of rows; one candidate's points at a time, so
            # that building holds them only once
            self.stencil = Stencil(
                cfg.grid, (len(offs), q) + cfg.grid.shape, (near + off for off in offs)
            )
        self.runs = list(zip(starts, ends))
        shape = (len(self.runs), q) + cfg.grid.shape
        if shape not in run_maxima:
            run_maxima[shape] = np.empty(shape)
        self.merged = run_maxima[shape]
        self.costs = costs[starts]
        self.weights = meas.weights
        self.radius = radius
        self.p = cfg.p
        self.warm = warm
        self.lam = self.prev = self.paid = None

    def apply(self, f: ScalarField) -> Array:
        grid = self.stencil.grid
        if f.grid is not grid and not same_nodes(f.grid, grid):
            raise InputError("the field and the step live on different grids")
        args = (self._run_max(f.values), self.costs, self.weights, self.radius, self.p)
        if self.prev is not None and self.radius > 0.0:
            # the walk finds the same multipliers from any start, and from
            # the multipliers' drift over the last step it crosses fewer
            # breakpoints
            guess = np.maximum(2.0 * self.lam - self.prev, 0.0)
            out, lam, self.paid = solve_window(*args, guess, self.paid)
        else:
            out, lam = solve_batch(*args)
        if self.warm:
            self.prev, self.lam = self.lam, lam
        return out

    def _run_max(self, values: Array) -> Array:
        """The C-contiguous (D, Q, N) max of the interpolated values over each
        of the D runs of equal cost, in ``merged``: one (Q, N) block per run,
        the candidate-major layout that ``solve_batch`` computes in, which
        the stencil's ``run_max`` writes in place.  A 1-d shift stencil or a
        point stencil reduces the run's rows with ``np.maximum``; a 2-d shift
        stencil folds one candidate and atom at a time, lerping once along
        the last axis per candidate and distinct shift along it.  Either
        way each block is the fold of the run's values in candidate order,
        the same bits as ``np.max`` over the run."""
        windows = self.stencil.windows(values)
        merged = self.merged
        for k, (start, end) in enumerate(self.runs):
            self.stencil.run_max(windows, start, end, merged[k])
        return merged.reshape(merged.shape[:2] + (-1,))


def action_values(
    cfg: OperatorConfig, t: float, f: ScalarField, cache: Optional[Dict] = None
) -> List[Array]:
    """Each action's worst case over the radius-(t m) ball around its law,
    one kernel apply per action, in the order of ``cfg.model.actions``.

    ``cache`` maps (config, action label, t) to the step kernel, so that
    configs may share it; a kernel built here writes its run maxima into the
    array of its shape that the cache's kernels hold, if one does
    (``_StepKernel``).  The kernels built here are cold, so a shared cache
    changes no output.
    """
    cache = {} if cache is None else cache
    out = []
    for act in cfg.model.actions:
        kernel = cache.get((cfg, act.label, t))
        if kernel is None:
            run_maxima = {k.merged.shape: k.merged for k in cache.values()}
            kernel = cache[(cfg, act.label, t)] = _StepKernel(cfg, act, t, run_maxima)
        out.append(kernel.apply(f).reshape(cfg.grid.shape))
    return out


def dro_step(
    cfg: OperatorConfig,
    t: float,
    f: ScalarField,
    cache: Optional[Dict] = None,
    reduce: Callable[[Array, Array], Array] = np.minimum,
) -> ScalarField:
    """One period: node-wise ``reduce`` over the actions' ``action_values``.

    ``reduce=np.minimum`` (the default) is the robust operator and
    ``np.maximum`` the best case.  ``cache`` is passed to ``action_values``.
    """
    return ScalarField(cfg.grid, functools.reduce(reduce, action_values(cfg, t, f, cache)))


def compose(cfg: OperatorConfig, pi: Partition, f: ScalarField) -> ScalarField:
    """Multi-period robust value over a partition, rightmost gap applied first.

    Its kernels are warm and built per call, so the output is a function of
    the inputs alone: the first two steps with a gap solve cold, and from the
    third on each solves through certified windows walked from the
    multipliers of the two steps before with that gap (``_StepKernel``).
    """
    run_maxima: Dict[tuple, Array] = {}
    cache = {
        (cfg, act.label, gap): _StepKernel(cfg, act, gap, run_maxima, warm=True)
        for gap in dict.fromkeys(pi.gaps) for act in cfg.model.actions
    }
    out = f
    for gap in reversed(pi.gaps):
        out = dro_step(cfg, gap, out, cache)
    return out


@dataclass
class ScalingLimitResult:
    field: ScalarField
    level_gaps: List[float]
    levels: List[int]
    converged: bool

    @property
    def levels_used(self) -> int:
        return len(self.levels)


def scaling_limit(
    cfg: OperatorConfig,
    t: float,
    f: ScalarField,
    window: CompactWindow,
    max_level: int = 8,
    stop_tol: float = 1e-3,
) -> ScalingLimitResult:
    """Dyadic approximation of the infimum over partitions.

    Runs the composition over the dyadic partitions of [0, t] for increasing
    level, recording window sup-distances between successive distinct levels,
    and stops when that gap drops to ``stop_tol``.  Levels whose partition
    repeats the previous one (t smaller than the dyadic step) are skipped;
    they define the same composition.  Non-convergence within ``max_level``
    is reported in the result, not raised; a horizon whose partition at
    ``max_level`` has more than MAX_GAPS gaps is refused before any level.
    """
    if not 0 <= max_level <= MAX_LEVEL:
        raise InputError(f"max_level must lie in [0, {MAX_LEVEL}]; each level doubles the cost")
    if not stop_tol >= 0:
        raise InputError("stop_tol must be nonnegative")
    dyadic_partition(t, max_level)
    if t == 0.0:
        return ScalingLimitResult(f, [], [], True)
    prev_part = None
    prev_field = None
    gaps: List[float] = []
    levels: List[int] = []
    converged = False
    for n in range(int(max_level) + 1):
        part = dyadic_partition(t, n)
        if prev_part is not None and part.times == prev_part.times:
            continue
        out = compose(cfg, part, f)
        levels.append(n)
        if prev_field is not None:
            gaps.append(sup_distance(out, prev_field, window))
        prev_field, prev_part = out, part
        if gaps and gaps[-1] <= stop_tol:
            converged = True
            break
    return ScalingLimitResult(prev_field, gaps, levels, converged)
