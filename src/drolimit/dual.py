"""Worst-case expectations over a Wasserstein ball around a discrete measure.

The inner problem is

    sup { E_nu[g]  :  nu supported on the candidate sets,  W_p(mu, nu) <= r }

with mu = sum_i w_i delta_{y_i} and per-atom candidate destinations Z_i that
always contain y_i itself.  Restricted to finite candidates this is a
transport LP whose dual collapses to one multiplier:

    D(lam) = lam r^p + sum_i w_i max_{z in Z_i} [ g(z) - lam ||z - y_i||^p ],

a convex piecewise-linear function of lam >= 0 whose minimum equals the LP
value (LP strong duality).  ``solve_batch`` minimizes D for a batch of grid
nodes at once (exactly, by cutting planes on its pieces from lam = 0, so its
answer depends on its input alone); ``wasserstein_sup`` runs it on one
``DualInstance``, and ``brute_force_sup`` enumerates lattice transport plans
as an independent primal oracle.  ``solve_window``, the only solver that
starts from the multipliers of an earlier solve, gives ``solve_batch``'s
values for steps whose multipliers barely move: it minimizes the dual of a
window of four runs per atom exactly, a fractional knapsack walked through
its breakpoints from the last multiplier, and keeps a node's answer only
where one full evaluation of D certifies it; the other nodes go to
``solve_batch``.

``solve_batch`` reads one cost row shared by all atoms, with column 0 the
only free one.  The step kernels build that row from their offsets; a
``DualInstance`` evaluates its integrand and costs once per atom, and
``_tableau`` puts those rows on the distinct costs of all atoms, keeping
each atom's largest value at each cost.

Each evaluation of D is candidate-major: for one block of atom rows at a
time, small enough to stay in cache, one loop over the candidates keeps the
running max and the index of the candidate it pays, the index in one byte
while there are at most 256 candidates and updated without a mask.  Every
element meets the same operations in the same order in any block, and the
sums over atoms run in a fixed order, so a node's value does not depend on
which other nodes share its batch.  The batch therefore drops the nodes
whose cutting planes have stopped, once at most half of it still runs.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .models import DiscreteMeasure

Array = np.ndarray

_STAY_TOL = 1e-9
_BLOCK = 1 << 15  # (atom, node) elements per block of ``_best_candidates``


class DualInstance:
    """One discrete worst-case problem: source atoms, candidate destinations,
    an integrand, a radius, and the transport order p.

    Candidate set i is a (k, d) array that contains source atom i.  The
    integrand and the costs ||z - y_i||^p are evaluated once per atom, into
    ``values[i]`` and ``costs[i]`` in the order of the candidates; the stay
    option (the cheapest candidate) costs exactly 0.
    """

    def __init__(
        self,
        source: DiscreteMeasure,
        candidates: Sequence[Array],
        integrand: Callable[[Array], Array],
        radius: float,
        p: float = 2.0,
    ):
        if radius < 0:
            raise InputError("radius must be nonnegative")
        if not p > 1:
            raise InputError("order p must be > 1")
        if len(candidates) != source.atoms.shape[0]:
            raise InputError("need one candidate set per source atom")
        self.source = source
        self.radius = float(radius)
        self.p = float(p)
        self.integrand = integrand
        self.candidates, self.values, self.costs = [], [], []
        d = source.dim
        for i, z in enumerate(candidates):
            z = np.asarray(z, dtype=float)
            if z.ndim != 2 or z.shape[1] != d:
                raise InputError(f"candidate set {i} must be a (k, {d}) array, got shape {z.shape}")
            dist = np.linalg.norm(z - source.atoms[i], axis=1)
            if not np.any(dist <= _STAY_TOL):
                raise InputError(
                    f"candidate set {i} does not contain its source atom"
                    " (zero-cost stay option required)"
                )
            g = np.asarray(integrand(z), dtype=float).ravel()
            if g.shape[0] != z.shape[0]:
                raise InputError("integrand returned wrong number of values")
            if not np.all(np.isfinite(g)):
                raise InputError("integrand returned non-finite values")
            c = dist ** self.p
            c[np.argmin(c)] = 0.0  # the stay option is exactly free
            self.candidates.append(z)
            self.values.append(g)
            self.costs.append(c)


def _tableau(values: Sequence[Array], costs: Sequence[Array]) -> tuple:
    """One shared cost row for per-atom rows of candidate values and costs.

    Returns the distinct costs of all atoms, ascending from 0, and the
    (atoms, costs) table of each atom's largest value at each cost.  Where an
    atom has no candidate at a cost, its entry is the atom's best free value
    (column 0): fl(g_0 - lam c) <= g_0, and a candidate replaces the running
    max only where it is strictly larger, so that entry never changes the max.
    """
    levels = np.unique(np.concatenate(costs))
    table = np.full((len(values), len(levels)), -np.inf)
    for row, g, c in zip(table, values, costs):
        np.maximum.at(row, np.searchsorted(levels, c), g)
        row[row == -np.inf] = row[0]
    return levels, table


def wasserstein_sup(inst: DualInstance) -> float:
    """LP value of the instance: ``solve_batch`` on a batch of one node."""
    levels, table = _tableau(inst.values, inst.costs)
    gvals = table.T[:, :, None]  # (costs, atoms, one node)
    value, _ = solve_batch(gvals, levels, inst.source.weights, inst.radius, inst.p)
    return float(value[0])


def _simplex_lattice(k: int, steps: int) -> Array:
    """All length-k nonnegative integer tuples summing to steps, as fractions,
    in lexicographic order: built one part at a time, each row with what it
    has left r taking the next part 0, 1, ..., r in turn, and the last part
    the rest."""
    parts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([steps])
    for _ in range(k - 1):
        counts = left + 1
        rows = np.repeat(np.arange(len(left)), counts)
        nxt = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = np.hstack([parts[rows], nxt[:, None]])
        left = left[rows] - nxt
    return np.hstack([parts, left[:, None]]) / steps


def brute_force_sup(inst: DualInstance, grid_steps: int = 8) -> float:
    """Primal enumeration oracle over lattice transport plans.

    Each atom's conditional plan runs over the simplex lattice with
    ``grid_steps`` subdivisions; plans are combined across atoms by outer
    sums and filtered by the p-th moment budget.  Exponential in the instance
    size, so it refuses anything beyond a few atoms and candidates.
    """
    natoms = inst.source.atoms.shape[0]
    biggest = max(len(g) for g in inst.values)
    if natoms > 5 or biggest > 12:
        raise InputError(
            f"instance too large for the enumeration oracle"
            f" ({natoms} atoms, up to {biggest} candidates per atom)"
        )
    if grid_steps < 1:
        raise InputError("grid_steps must be >= 1")
    rp = inst.radius ** inst.p
    w = inst.source.weights

    per_atom_vals = []
    per_atom_costs = []
    n_plans = 1
    for i, (g, c) in enumerate(zip(inst.values, inst.costs)):
        plans = _simplex_lattice(len(g), grid_steps)
        per_atom_vals.append(w[i] * plans @ g)
        per_atom_costs.append(w[i] * plans @ c)
        n_plans *= plans.shape[0]
        if n_plans > 5_000_000:
            raise InputError("instance too large for the enumeration oracle")

    # the plan that keeps every atom on its free stay option costs exactly 0;
    # costs are >= 0 and rounding is monotone, so a partial plan over the
    # budget stays over it and is dropped after each outer sum
    budget = rp * (1.0 + 1e-12) + 1e-15
    vals = per_atom_vals[0]
    cost = per_atom_costs[0]
    for v, c in zip(per_atom_vals[1:], per_atom_costs[1:]):
        keep = cost <= budget
        vals = np.add.outer(vals[keep], v).ravel()
        cost = np.add.outer(cost[keep], c).ravel()
    return float(vals[cost <= budget].max())


def oracle_resolution(inst: DualInstance, grid_steps: int) -> float:
    """Upper bound on the lattice oracle's shortfall versus the exact LP.

    An optimal basic solution splits at most one atom between two
    destinations, so rounding that split to the lattice loses at most
    max_i w_i * osc_i(g) / grid_steps.
    """
    worst = 0.0
    for wi, g in zip(inst.source.weights, inst.values):
        worst = max(worst, float(wi * (g.max() - g.min())))
    return worst / grid_steps


def _weighted_sum(a: Array, w: Array) -> Array:
    """sum_k a[k] w[k] over the first axis, added in the order of k, so that
    every column's bits depend on that column alone, not on how many other
    columns share the call (a matrix-vector product may reorder its sums
    with the batch size)."""
    out = a[0] * w[0]
    for k in range(1, len(w)):
        out += a[k] * w[k]
    return out


def _best_candidates(g: Array, costs: Array, lam: Array) -> tuple:
    """The (Q, M) max over candidates of g[d] - costs[d] lam, for g of shape
    (C, Q, M), and the (intp) index d of the candidate each max pays;
    ``costs[0]`` is the free stay option.  A candidate replaces the max only
    where it is strictly larger, so of equal maxima the first, cheapest one
    pays.

    The loop runs over blocks of whole atom rows, about ``_BLOCK`` elements
    each, so that a block's running max stays in cache across candidates; the
    products costs[d] lam are formed once, as a (C, M) table.  The index is
    kept in the smallest unsigned type that holds C - 1 and updated without
    a mask, as max(paid, d [better]): d exceeds every index recorded before
    it.  Each element meets the same operations in the same order at any
    block size, so the bits do not depend on it."""
    c, q, m = g.shape
    mx = g[0].copy()
    paid = np.zeros((q, m), np.min_scalar_type(c - 1))
    index = np.arange(c, dtype=paid.dtype)
    prod = costs[:, None] * lam
    rows = max(_BLOCK // max(m, 1), 1)
    cand = np.empty((min(rows, q), m))
    better = np.empty(cand.shape, bool)
    flags = better.view(np.uint8)
    step = np.empty(cand.shape, paid.dtype)
    for s in range(0, q, rows):
        top, idx = mx[s:s + rows], paid[s:s + rows]
        k = len(top)
        cb, bb, fb, sb = cand[:k], better[:k], flags[:k], step[:k]
        for d in range(1, c):
            np.subtract(g[d, s:s + rows], prod[d], out=cb)
            np.greater(cb, top, out=bb)
            np.maximum(top, cb, out=top)
            np.multiply(fb, index[d], out=sb)
            np.maximum(idx, sb, out=idx)
    return mx, paid.astype(np.intp)


def _check_row(gvals: Array, costs: Array) -> None:
    """Refuse a cost row other than one ascending (C,) row whose column 0 is
    its only free one; equal costs may repeat."""
    if (
        costs.shape != gvals.shape[:1] or costs[0] != 0.0
        or not np.all(costs[1:] > 0.0) or np.any(np.diff(costs) < 0.0)
    ):
        raise InputError(
            "costs must be one (C,) row: 0 for the stay option, then positive and ascending"
        )


def solve_batch(
    gvals: Array, costs: Array, weights: Array, radius: float, p: float
) -> Tuple[Array, Array]:
    """Exact vectorized dual minimization for a batch of instances sharing geometry.

    gvals:   (C, Q, N) integrand values, one (Q, N) block of atoms by grid
             nodes per candidate
    costs:   (C,) ascending transport costs ||z - y||^p shared by all
             atoms; costs[0] is the free stay option and the only free one
             (``_tableau`` puts per-atom rows on one such row), and the
             ascending order makes ties resolve toward cheaper destinations
    weights: (Q,) source weights

    Returns the per-node LP values and the multiplier each node stopped at.
    D is convex and piecewise linear, so each node runs cutting planes in
    lambda: two supporting lines bracket the minimizer, the next point is
    where they cross, and the line on the side of the new subgradient's sign
    is replaced.  The bracket opens with the line at lam = 0 and the stay
    line lam r^p + sum_i w_i g_i0, a lower bound that D reaches for large
    lam; a node whose subgradient at 0 is not negative is minimized there.
    A node stops when the new subgradient repeats a bracketing slope or is
    0 (the point lies on a known piece, so it is a minimizer), or when
    rounding leaves no crossing strictly inside the bracket.  Every pass
    finds a new piece of D, so at most Q (C - 1) + 1 passes follow the
    opening one.  The reported value is the running minimum of all
    evaluated dual objectives, an upper bound on the LP value that is
    attained up to rounding.

    A pass runs candidate by candidate over the M nodes of the working set,
    on blocks of whole atom rows of about ``_BLOCK`` elements, keeping each
    element's running max and a one- or two-byte index of the candidate it
    pays (``_best_candidates``), so it builds no tensor beyond its input and
    ties keep the cheaper cost.  Sums over atoms run in a fixed order
    (``_weighted_sum``), so a node's value is the same bits in any batch;
    that is what lets the working set shrink to the running nodes once at
    most half of it still runs.
    """
    _check_row(gvals, costs)
    n = gvals.shape[2]
    if radius <= 0.0 or len(gvals) == 1:
        return _weighted_sum(gvals[0], weights), np.zeros(n)
    rp = radius ** p
    g = np.ascontiguousarray(gvals)
    c, q, _ = g.shape

    def evaluate(lam: Array):
        mx, paid = _best_candidates(g, costs, lam)
        val = lam * rp + _weighted_sum(mx, weights)
        sub = rp - _weighted_sum(costs.take(paid), weights)
        return val, sub

    # supporting lines a + s lam: the left one at the last point with a
    # negative subgradient, the right one at the last with a positive one,
    # or the stay line, with column 0 the only free one
    lam = np.zeros(n)
    best, sub = evaluate(lam)
    active = sub < 0
    a_l, s_l, lo = best - sub * lam, sub, lam
    a_r, s_r, hi = _weighted_sum(g[0], weights), np.full(n, rp), np.full(n, np.inf)
    # the nodes of the working set; ``best`` holds their running minima
    nodes, out, stopped_at = np.arange(n), np.empty(n), np.empty(n)
    for _ in range(q * (c - 1) + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (a_l - a_r) / (s_r - s_l)
        active &= (cross > lo) & (cross < hi)
        running = np.count_nonzero(active)
        if not running:
            break
        if 2 * running <= active.size:
            # the stopped nodes leave the working set
            keep = np.flatnonzero(active)
            out[nodes], stopped_at[nodes] = best, lam
            g = g[:, :, keep]
            nodes, best, active, cross, lam, a_l, s_l, lo, a_r, s_r, hi = (
                x[keep] for x in (nodes, best, active, cross, lam, a_l, s_l, lo, a_r, s_r, hi)
            )
        # stopped nodes still in the working set keep their last, finite lambda
        lam = np.where(active, cross, lam)
        val, sub = evaluate(lam)
        np.minimum(best, val, out=best, where=active)
        active &= (sub != s_l) & (sub != s_r) & (sub != 0)
        left, right = active & (sub < 0), active & (sub > 0)
        a = val - sub * lam
        a_l, s_l, lo = np.where(left, a, a_l), np.where(left, sub, s_l), np.where(left, lam, lo)
        a_r, s_r, hi = np.where(right, a, a_r), np.where(right, sub, s_r), np.where(right, lam, hi)
    if active.any():
        raise RuntimeError("batch dual cutting planes did not terminate")
    out[nodes], stopped_at[nodes] = best, lam
    return out, stopped_at


def _window_minimizer(
    g: Array, costs: Array, weights: Array, rp: float, centre: Array, lam0: Array
) -> tuple:
    """Each element's window and the exact minimizer of the window's dual
    D_w(lam) = lam r^p + sum_q w_q max over the window of g - costs lam.

    The window is the stay run and three consecutive runs around the
    element's ``centre`` run, shifted into [1, D - 1] (and repeated where
    D < 4).  Returns the (Q, N) lowest of those three runs and the minimizer
    ``_walk`` finds from lam0."""
    d, size = len(costs), centre.size
    first = np.clip(centre - 1, 1, max(d - 3, 1))
    runs = np.minimum(first + np.arange(3)[:, None, None], d - 1)
    wcosts = costs.take(runs)
    runs *= size
    runs += np.arange(size).reshape(centre.shape)
    breaks = _breakpoints(g[0], g.reshape(-1).take(runs), wcosts)
    wcosts *= weights[:, None]
    return first, _walk(breaks, wcosts, rp, lam0)


def _breakpoints(stay: Array, values: Array, costs: Array) -> Array:
    """Each element's (3, Q, N) breakpoints in lam: for each window line
    values[j] - costs[j] lam (costs ascending in j), the lowest lam at which
    a cheaper line, the stay line ``stay`` among them, overtakes it.

    Just above lam an element pays the costliest line whose breakpoint
    exceeds lam: that line beats every cheaper one there, and each costlier
    line loses there to a cheaper one, which loses in turn down to it.  So
    the cost paid, max_j costs[j] [breakpoint_j > lam], changes only at
    breakpoints, and the breakpoints of lines that never lead change nothing.
    Of two lines of equal cost, a later one that is lower or a copy (a run
    repeated in the window) crosses the earlier one at -inf or 0/0, and the
    -inf or NaN keeps it from being paid; a later one that is higher crosses
    it at +inf and is paid wherever the earlier one would be, at that cost."""
    breaks = values - stay
    breaks /= costs
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, k in ((1, 0), (2, 0), (2, 1)):
            np.minimum(breaks[j], (values[j] - values[k]) / (costs[j] - costs[k]), out=breaks[j])
    return breaks


def _walk(breaks: Array, costs: Array, rp: float, lam0: Array) -> Array:
    """The smallest lam >= 0 at which the cost paid just above it, S(lam+),
    is at most r^p: the minimizer of the window's dual, whose slope is
    r^p - S(lam+).  ``costs`` are the window's costs times the atoms'
    weights.

    Where S(lam0+) > r^p it walks up through the breakpoints above lam0
    until S(b+) <= r^p; elsewhere down through those at or below lam0 until
    S(b-) > r^p, and stops at 0 if none is left above 0.  Equal breakpoints
    are crossed together, and a node leaves the walk when it stops.  S adds
    the atoms in a fixed order, so a node's walk does not depend on the
    other nodes."""

    def paid(b, c, tau):
        return functools.reduce(np.add, (c * (b > tau)).max(axis=0))

    rising = paid(breaks, costs, lam0) > rp
    sign = np.where(rising, 1.0, -1.0)
    # the next breakpoint b has sign * b > at; going down, it may equal lam0
    at = np.where(rising, lam0, -np.nextafter(lam0, np.inf))
    lam = np.empty_like(lam0)
    nodes, b, c = np.arange(len(lam0)), breaks, costs
    while nodes.size:
        signed = sign * b
        nxt = sign * np.where(signed > at, signed, np.inf).min(axis=(0, 1))
        # S just above nxt going up, and just below it going down
        over = paid(b, c, np.where(rising, nxt, np.nextafter(nxt, -np.inf))) > rp
        stop = (over != rising) | (nxt <= 0.0)
        lam[nodes[stop]] = np.maximum(nxt[stop], 0.0)
        go = ~stop
        nodes, at, sign, rising = nodes[go], (sign * nxt)[go], sign[go], rising[go]
        b, c = b[:, :, go], c[:, :, go]
    return lam


def solve_window(
    gvals: Array, costs: Array, weights: Array, radius: float, p: float,
    guess: Array, centre: Optional[Array],
) -> Tuple[Array, Array, Array]:
    """``solve_batch``'s values for a batch whose multipliers barely moved
    since ``guess``, from a window of four runs per element, certified by one
    full evaluation of D.

    costs:  (C,) the cost row of ``solve_batch``
    guess:  (N,) finite multipliers >= 0, near each node's minimizer
    centre: (Q, N) integer array of the run each element paid at ``guess``
            (on the data of the step before), or None: one full evaluation
            at the guess gives it

    ``_window_minimizer`` minimizes the dual D_w <= D of each element's
    window (its stay run and three runs around its centre) exactly, from the
    guess.  At that minimizer lam, D(lam) is evaluated in full
    (``_best_candidates``).  A node where every atom's full max is paid by a
    run of its window, so that it equals the window's max bit for bit, has
    D(lam) = D_w(lam) = min D_w <= min D: its value is that evaluation,
    attained up to rounding as in ``solve_batch``, and its multiplier lam.
    Every other node goes to ``solve_batch``, and one more evaluation at the
    multiplier it stops at gives its runs.  Every step is per node, so a
    node's result is the same bits in any batch.

    Returns the per-node values, the multipliers, and the (Q, N) run each
    element paid at the last full evaluation of its node: the next centres.
    """
    _check_row(gvals, costs)
    n = gvals.shape[2]
    if np.shape(guess) != (n,) or not np.all((guess >= 0.0) & (guess < np.inf)):
        raise InputError(f"the guess must be ({n},) finite multipliers >= 0")
    if radius <= 0.0 or len(gvals) == 1:
        raise InputError("a window needs a positive radius and a cost above 0")
    if centre is not None:
        centre = np.asarray(centre)
        if centre.shape != gvals.shape[1:] or not np.issubdtype(centre.dtype, np.integer):
            raise InputError(f"the centre must be a {gvals.shape[1:]} array of integer runs")
        # as intp, so that an unsigned centre cannot wrap at centre - 1
        centre = centre.astype(np.intp, copy=False)
    rp = radius ** p
    g = np.ascontiguousarray(gvals)
    if centre is None:
        centre = _best_candidates(g, costs, guess)[1]
    first, lam = _window_minimizer(g, costs, weights, rp, centre, guess)
    mx, runs = _best_candidates(g, costs, lam)
    out = lam * rp + _weighted_sum(mx, weights)
    inside = (runs == 0) | ((runs >= first) & (runs <= first + 2))
    cold = np.flatnonzero(~np.all(inside, axis=0))
    if cold.size:
        sub = g[:, :, cold]
        out[cold], lam[cold] = solve_batch(sub, costs, weights, radius, p)
        runs[:, cold] = _best_candidates(sub, costs, lam[cold])[1]
    return out, lam, runs
