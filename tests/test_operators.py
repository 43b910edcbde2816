import math
import os
from dataclasses import replace

import numpy as np
import pytest

from drolimit import (
    Action,
    CompactWindow,
    Grid,
    InputError,
    OperatorConfig,
    Partition,
    ReferenceModel,
    ScalarField,
    brownian_model,
    compose,
    covariance,
    dro_step,
    dyadic_partition,
    law,
    psi,
    scaling_limit,
    sup_distance,
)
from drolimit import dual
from drolimit.dual import solve_batch
from drolimit.fields import ShiftStencil, Stencil
from drolimit.operators import MAX_GAPS, _StepKernel, _radius_offsets, action_values
from drolimit.validation import named_field, normal_cdf


@pytest.fixture(scope="module")
def grid():
    return Grid(-8.0, 8.0, 513)


@pytest.fixture(scope="module")
def window():
    return CompactWindow((-4.0,), (4.0,))


# Brownian kernels against ``eval``: both interpolate the same points, up to
# the rounding of the positions (|x| <= 16, slopes <= 1)
SHIFT_TOL = 1e-14


def cfg_for(grid, m=0.5, drifts=((0.0,),), sigma=1.0, **kw):
    model = brownian_model([list(b) for b in drifts], [[sigma]])
    return OperatorConfig(model=model, m=m, grid=grid, **kw)


def reference_loop(cfg, t, f):
    """Independent non-robust step: per action, the quadrature expectation of
    f(psi_t^a(x) + y) at every node; then the node-wise min over actions."""
    vals = None
    for act in cfg.model.actions:
        meas = law(act, t, cfg.quad_order)
        base = psi(act, t, cfg.grid.nodes())
        pts = base[:, None, :] + meas.atoms[None, :, :]
        g = f.eval(pts.reshape(-1, cfg.grid.dim)).reshape(pts.shape[:2])
        out = g @ meas.weights
        vals = out if vals is None else np.minimum(vals, out)
    return ScalarField(cfg.grid, vals)


# ---------------------------------------------------------------- partitions

def test_partition_validation():
    with pytest.raises(InputError):
        Partition((0.5, 1.0))
    with pytest.raises(InputError):
        Partition((0.0, 1.0, 1.0))
    p = Partition((0.0, 0.5, 2.0))
    assert p.times[-1] == 2.0 and p.gaps == (0.5, 1.5)
    assert Partition((0.0,)).gaps == ()


def test_dyadic_partitions():
    assert dyadic_partition(1.0, 0).times == (0.0, 1.0)
    assert dyadic_partition(1.0, 2).times == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert dyadic_partition(0.3, 2).times == (0.0, 0.25, 0.3)
    assert dyadic_partition(0.0, 5).times == (0.0,)
    assert dyadic_partition(0.05, 3).times == (0.0, 0.05)
    # the regular points are the multiples k 2^-n strictly below t
    part = dyadic_partition(0.7, 4)
    assert part.times[-2] < 0.7 <= part.times[-2] + 2.0 ** -4
    # at most MAX_GAPS gaps, refused before the times are built
    assert len(dyadic_partition(64.0, 10).gaps) == MAX_GAPS
    for t, level in ((64.0 + 2.0 ** -10, 10), (1e300, 0)):
        with pytest.raises(InputError, match=f"more than {MAX_GAPS} dyadic gaps"):
            dyadic_partition(t, level)


def test_dyadic_levels_are_whole_numbers(grid, window):
    # a level of 0.5 would put the non-dyadic 2^-0.5 in the partition; 8.0,
    # as a config may spell level 8, is level 8
    assert dyadic_partition(1.0, 8.0).times == dyadic_partition(1.0, 8).times
    for level in (0.5, 2.5, math.inf, math.nan):
        with pytest.raises(InputError, match="whole level"):
            dyadic_partition(1.0, level)
    cfg, f = cfg_for(grid, quad_order=4, cand_per_side=4), named_field(grid, "tanh")
    with pytest.raises(InputError, match="whole level"):
        scaling_limit(cfg, 1.0, f, window, max_level=2.5)
    whole = scaling_limit(cfg, 1.0, f, window, max_level=2.0, stop_tol=0.0)
    assert whole.levels == [0, 1, 2]
    level2 = scaling_limit(cfg, 1.0, f, window, max_level=2, stop_tol=0.0)
    assert np.array_equal(whole.field.values, level2.field.values)


def test_refinement_relation():
    # each dyadic level keeps every time of the previous one
    fine = set(dyadic_partition(1.0, 3).times)
    coarse = set(dyadic_partition(1.0, 2).times)
    assert coarse < fine
    assert set(dyadic_partition(0.7, 3).times) < set(dyadic_partition(0.7, 4).times)


# ---------------------------------------------------------------- one-period

def test_reference_step_identity_and_constant(grid):
    cfg = cfg_for(grid, m=0.0)
    f = named_field(grid, "cos")
    assert np.array_equal(dro_step(cfg, 0.0, f).values, f.values)
    five = ScalarField(grid, np.full(grid.shape, 5.0))
    out = dro_step(cfg, 0.3, five)
    assert np.allclose(out.values, 5.0, atol=1e-12)


def test_reference_step_heat_identity(grid, window):
    cfg = cfg_for(grid, m=0.0)
    f = named_field(grid, "cos")
    out = dro_step(cfg, 0.5, f)
    ref = math.exp(-0.25) * np.cos(grid.axes[0])
    assert np.max(np.abs(out.values - ref)[window.mask(grid)]) <= 1e-4


def test_dro_step_zero_m_equals_reference(grid):
    # Brownian kernels interpolate at node + shift with the shift rounded
    # once, not at each rounded point, so they agree up to rounding
    f = named_field(grid, "tanh")
    for drifts in (((0.0,),), ((-0.5,), (0.5,))):
        cfg = cfg_for(grid, m=0.0, drifts=drifts)
        diff = dro_step(cfg, 0.3, f).values - reference_loop(cfg, 0.3, f).values
        assert np.max(np.abs(diff)) <= SHIFT_TOL
    # the m = 0 config of a robust one gives the same step
    robust = cfg_for(grid, m=0.5, drifts=((-0.5,), (0.5,)))
    diff = dro_step(replace(robust, m=0.0), 0.3, f).values - reference_loop(robust, 0.3, f).values
    assert np.max(np.abs(diff)) <= SHIFT_TOL


def test_dro_step_constant_passthrough(grid):
    cfg = cfg_for(grid, m=0.5)
    c = ScalarField(grid, np.full(grid.shape, 2.5))
    out = dro_step(cfg, 0.2, c)
    assert np.allclose(out.values, 2.5, atol=1e-12)


def test_dro_step_a_priori_bracket(grid):
    # robust value sits between the reference value and reference + t*m*Lip(f)
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "cos")
    out = dro_step(cfg, 0.1, f)
    i0 = int(np.argmin(np.abs(grid.axes[0])))
    lo = math.exp(-0.05)
    assert lo - 1e-4 <= out.values[i0] <= min(1.0, lo + 0.05) + 1e-9


def test_single_action_matches_min_of_one(grid):
    # with one action the min and the max over actions are the same step
    cfg = cfg_for(grid, m=0.3)
    f = named_field(grid, "sin")
    a = dro_step(cfg, 0.1, f)
    b = dro_step(cfg, 0.1, f, reduce=np.maximum)
    assert np.array_equal(a.values, b.values)


def test_two_action_min_and_tie(grid, window):
    cfg = cfg_for(grid, m=0.0, drifts=((-1.0,), (1.0,)))
    f = named_field(grid, "cos")
    out = dro_step(cfg, 0.1, f)
    i0 = int(np.argmin(np.abs(grid.axes[0])))
    target = math.exp(-0.05) * math.cos(0.1)
    assert out.values[i0] == pytest.approx(target, abs=1e-4)
    best = dro_step(cfg, 0.1, f, reduce=np.maximum)
    assert best.values[i0] == pytest.approx(target, abs=1e-4)  # symmetric tie
    assert np.all(best.values >= out.values - 1e-12)


def test_best_case_dominates_levelwise(grid):
    cfg = cfg_for(grid, m=0.4, drifts=((-0.5,), (0.5,)))
    f = named_field(grid, "tanh")
    part = dyadic_partition(0.5, 2)
    worst = compose(cfg, part, f)
    best = f
    for gap in reversed(part.gaps):
        best = dro_step(cfg, gap, best, reduce=np.maximum)
    assert np.all(best.values >= worst.values - 1e-12)


# ---------------------------------------------------------------- composition

def test_compose_trivial_partitions(grid):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "tanh")
    assert compose(cfg, Partition((0.0,)), f) is f
    one = compose(cfg, Partition((0.0, 0.2)), f)
    assert np.array_equal(one.values, dro_step(cfg, 0.2, f).values)


def test_compose_linear_semigroup_collapse(grid, window):
    # m=0, single action: any partition reproduces the one-shot reference step
    # (each extra stage re-samples the grid, adding ~5e-5 interpolation bias)
    cfg = cfg_for(grid, m=0.0)
    f = named_field(grid, "cos")
    direct = dro_step(cfg, 0.75, f)
    two_stage = compose(cfg, Partition((0.0, 0.4, 0.75)), f)
    assert sup_distance(two_stage, direct, window) <= 1e-4
    three_stage = compose(cfg, Partition((0.0, 0.2, 0.5, 0.75)), f)
    assert sup_distance(three_stage, direct, window) <= 3e-4


def test_scaling_limit_time_zero(grid, window):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "tanh")
    res = scaling_limit(cfg, 0.0, f, window=window)
    assert res.field is f and res.levels_used == 0 and res.level_gaps == []


def test_scaling_limit_linear_case_converges_immediately(grid, window):
    cfg = cfg_for(grid, m=0.0)
    f = named_field(grid, "cos")
    res = scaling_limit(cfg, 0.5, f, max_level=6, stop_tol=1e-3, window=window)
    assert res.converged
    assert res.level_gaps[-1] <= 1e-3
    assert sup_distance(res.field, dro_step(cfg, 0.5, f), window) <= 5e-3


def test_scaling_limit_duplicate_levels_skipped(grid, window):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "tanh")
    res = scaling_limit(cfg, 0.05, f, max_level=6, stop_tol=0.0, window=window)
    # levels 0..4 share the partition {0, 0.05}; only level 0, 5, 6 computed
    assert res.levels == [0, 5, 6]


def test_scaling_limit_gaps_decrease(grid, window):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "tanh")
    res = scaling_limit(cfg, 1.0, f, max_level=5, stop_tol=1e-9, window=window)
    assert all(b <= a + 1e-9 for a, b in zip(res.level_gaps, res.level_gaps[1:]))


def test_scaling_limit_cdf_oracle(grid, window):
    # monotone initial data linearizes the gradient term:
    # S(t) Phi = Phi((x + m t)/sqrt(1 + t))
    cfg = cfg_for(grid, m=0.5)
    u0 = named_field(grid, "normal_cdf")
    res = scaling_limit(cfg, 1.0, u0, max_level=5, stop_tol=1e-4, window=window)
    i0 = int(np.argmin(np.abs(grid.axes[0])))
    assert res.field.values[i0] == pytest.approx(normal_cdf(0.5 / math.sqrt(2.0)), abs=1e-2)


# ---------------------------------------------------------------- OU and 2-d

def test_ou_operator_contraction(grid):
    model = ReferenceModel(
        [Action("a0", sigma=np.array([[0.8]]), theta=np.array([[1.0]]), drift=np.array([0.2]))],
    )
    cfg = OperatorConfig(model=model, m=0.3, grid=grid)
    f = named_field(grid, "sin")
    g = named_field(grid, "tanh")
    out_f = dro_step(cfg, 0.2, f)
    out_g = dro_step(cfg, 0.2, g)
    assert np.max(np.abs(out_f.values - out_g.values)) <= np.max(np.abs(f.values - g.values)) + 1e-9


def test_two_dimensional_smoke():
    g2 = Grid((-6.0, -6.0), (6.0, 6.0), (49, 49))
    model = brownian_model([[0.0, 0.0]], np.eye(2), dim=2)
    cfg = OperatorConfig(
        model=model, m=0.0, grid=g2, quad_order=8, cand_per_side=4
    )
    f = ScalarField.from_function(g2, lambda x, y: np.cos(x) * np.cos(y))
    out = dro_step(cfg, 0.25, f)
    w2 = CompactWindow((-2.0, -2.0), (2.0, 2.0))
    ref = ScalarField.from_function(g2, lambda x, y: math.exp(-0.25) * np.cos(x) * np.cos(y))
    assert sup_distance(out, ref, w2) <= 2e-2
    # robust step stays above the plain expectation
    cfg_m = OperatorConfig(
        model=model, m=0.5, grid=g2, quad_order=8, cand_per_side=4
    )
    rob = dro_step(cfg_m, 0.25, f)
    assert np.all(rob.values >= out.values - 1e-12)


def kernel_points(cfg, act, t):
    """Every (candidate, atom, node) point of one step, (C, Q, N, d), and the
    sorted candidate costs."""
    meas = law(act, t, cfg.quad_order)
    offs, costs = _radius_offsets(
        cfg.m * t, cfg.cand_per_side, cfg.grid.dim, cfg.p
    )
    base = psi(act, t, cfg.grid.nodes())
    return base[None, None, :, :] + meas.atoms[None, :, None, :] + offs[:, None, None, :], costs


def kernel_values(kernel, f):
    """The kernel's interpolated values before the run max, (C, Q, N): the
    stencil's max over each candidate alone."""
    st = kernel.stencil
    windows = st.windows(f.values)
    values = np.empty((kernel.runs[-1][1], len(kernel.weights)) + f.values.shape)
    for c, block in enumerate(values):
        st.run_max(windows, c, c + 1, block)
    return values.reshape(values.shape[:2] + (-1,))


def test_2d_run_max_is_the_run_max_of_point_stencil_values(monkeypatch):
    # a dyadic law on a dyadic grid, with a dyadic flow and candidate step:
    # every point node + flow + atom + offset is exact, so the point stencil
    # locates it as the shift stencil does, and the separable fold gives
    # the bits of np.max over each run of the point stencil's values.  A
    # tensor law (atoms share their shifts along the last axis, 4 lerps per
    # candidate), a sheared one (each of the 16 atoms has its own) and
    # atoms past the box on both axes (two of them beyond the padding along
    # the last axis, clamped to one window column); 4 per side gives runs
    # of 8
    from drolimit import operators
    from drolimit.models import DiscreteMeasure

    g = Grid((-4.0, -4.0), (4.0, 4.0), (33, 33))
    f = ScalarField(g, np.random.default_rng(12).standard_normal(g.shape))
    x, y = np.meshgrid(*[np.array([-0.75, -0.25, 0.25, 0.75])] * 2, indexing="ij")
    laws = [
        (np.stack([x, y], -1).reshape(-1, 2), 4),
        (np.stack([x, y + x / 8], -1).reshape(-1, 2), 16),
        (np.array([[9.5, -11.25], [-10.0, 12.5], [9.0, 0.5], [0.25, -9.75], [-0.5, 0.75]]), 4),
    ]
    cfg = OperatorConfig(
        brownian_model([[0.5, -0.25]], np.eye(2), dim=2), 0.25, g,
        quad_order=4, cand_per_side=4,
    )
    t = 0.25
    offs, _ = _radius_offsets(cfg.m * t, 4, 2, 2.0)
    base = psi(cfg.model.actions[0], t, g.nodes())
    assert np.array_equal(base - g.nodes(), np.broadcast_to([0.125, -0.0625], base.shape))
    for atoms, lerps in laws:
        meas = DiscreteMeasure(atoms, np.full(len(atoms), 1.0 / len(atoms)))
        monkeypatch.setattr(operators, "law", lambda *args: meas)
        kernel = _StepKernel(cfg, cfg.model.actions[0], t, {})
        assert max(end - start for start, end in kernel.runs) == 8
        assert all(len(groups) == lerps for groups in kernel.stencil.lerps)
        pts = base[None, None, :, :] + atoms[None, :, None, :] + offs[:, None, None, :]
        values = Stencil(g, pts.shape[:-1], [pts]).apply(f.values)
        expected = np.stack([np.max(values[start:end], axis=0) for start, end in kernel.runs])
        assert np.array_equal(kernel._run_max(f.values), expected)
        if len(atoms) == 5:
            # past the box on both axes: exactly the corner values
            assert np.all(expected[:, 0] == f.values[-1, 0])
            assert np.all(expected[:, 1] == f.values[0, -1])


def test_2d_run_max_folds_like_np_max():
    # Gauss-Hermite laws for sigma = I (a tensor grid of atoms) and a
    # correlated sigma (a rotated one, whose atoms all differ along the last
    # axis), with candidates past the box at t = 1: each candidate's values
    # are ``eval``'s within rounding, and each run's max is np.max over the
    # run of them, bitwise
    g = Grid((-3.0, -3.0), (3.0, 3.0), (17, 19))
    f = ScalarField.from_function(g, lambda x, y: np.sin(x) * np.cos(0.7 * y) + 0.1 * x)
    for sigma in (np.eye(2), np.array([[1.0, 0.0], [0.6, 0.8]])):
        cfg = OperatorConfig(
            brownian_model([[0.5, 0.0]], sigma, dim=2), 0.25, g,
            quad_order=4, cand_per_side=4,
        )
        for t in (1.0, 2.0 ** -4):
            kernel = _StepKernel(cfg, cfg.model.actions[0], t, {})
            values = kernel_values(kernel, f)
            pts, _ = kernel_points(cfg, cfg.model.actions[0], t)
            assert np.max(np.abs(values - f.eval(pts))) <= SHIFT_TOL
            expected = np.stack([np.max(values[start:end], axis=0) for start, end in kernel.runs])
            assert np.array_equal(kernel._run_max(f.values), expected)


def test_shift_stencil_matches_eval(grid):
    # Brownian kernels with drift, atoms and candidates reaching past the box
    # at t = 1: within rounding of ``eval`` at the per-point positions, and
    # exactly the boundary value wherever the clamp decides alone
    g2 = Grid((-3.0, -3.0), (3.0, 3.0), (17, 17))
    cfg2 = OperatorConfig(
        model=brownian_model([[0.5, -0.3], [-0.7, 0.2]], np.eye(2), dim=2),
        m=0.25, grid=g2, quad_order=4, cand_per_side=3,
    )
    f2 = ScalarField.from_function(g2, lambda x, y: np.sin(x) * np.cos(0.7 * y) + 0.1 * x)
    cfg1 = cfg_for(grid, drifts=((0.3,), (-0.7,)))
    for cfg, f in [(cfg1, named_field(grid, "tanh")), (cfg2, f2)]:
        lo, hi = np.array(cfg.grid.lo), np.array(cfg.grid.hi)
        for t in (1.0, 2.0 ** -4, 2.0 ** -8):
            for act in cfg.model.actions:
                kernel = _StepKernel(cfg, act, t, {})
                assert isinstance(kernel.stencil, ShiftStencil)
                pts, _ = kernel_points(cfg, act, t)
                values = kernel_values(kernel, f)
                assert np.max(np.abs(values - f.eval(pts))) <= SHIFT_TOL
                # past the box on every axis, by more than rounding
                low = np.all(pts < lo - 1e-9, axis=-1)
                high = np.all(pts > hi + 1e-9, axis=-1)
                if t == 1.0:
                    assert low.any() and high.any()
                assert np.all(values[low] == f.values.flat[0])
                assert np.all(values[high] == f.values.flat[-1])


def test_shift_onto_nodes_reproduces_node_values(grid):
    # sigma = 0 leaves one atom, and 0.7 * (3 h / 0.7) / h rounds to
    # 2.9999999999999996 cells: snapped to 3, the step is an exact shift
    h = grid.spacing[0]
    cfg = cfg_for(grid, m=0.0, drifts=((0.7,),), sigma=0.0)
    # node-to-node jumps of order 1, so a fraction one ulp short of 1 shows
    f = ScalarField(grid, np.random.default_rng(5).standard_normal(grid.n))
    out = dro_step(cfg, 3 * h / 0.7, f).values
    assert np.array_equal(out[:-3], f.values[3:])
    assert np.all(out[-3:] == f.values[-1])


def test_default_lattice_spans_three_radii_at_a_quarter_radius(grid):
    # 12 per side at REACH = 3: 25 candidates k r/4, |k| <= 12, in 13 runs
    # of equal cost, the stay option alone and then the pairs +-k r/4
    cfg, t = cfg_for(grid), 0.25
    radius = cfg.m * t
    offs, costs = _radius_offsets(radius, cfg.cand_per_side, 1, cfg.p)
    steps = offs[:, 0] / (radius / 4)
    assert len(offs) == 25
    assert np.array_equal(np.sort(np.round(steps)), np.arange(-12.0, 13.0))
    assert np.max(np.abs(steps - np.round(steps))) <= 1e-12
    assert offs.min() == pytest.approx(-3 * radius, rel=1e-15)
    assert offs.max() == pytest.approx(3 * radius, rel=1e-15)
    kernel = _StepKernel(cfg, cfg.model.actions[0], t, {})
    assert kernel.stencil.cells.shape[1] == 25
    assert [end - start for start, end in kernel.runs] == [1] + [2] * 12
    assert np.array_equal(kernel.costs, np.unique(costs))


def test_composition_kernels_share_run_maxima_without_aliasing(grid):
    # the kernels of a two-action composition write their run maxima into one
    # array; an apply's values survive the next kernel's apply into it, and
    # warm kernels (windows from the third apply on) give the bits of kernels
    # that hold their own arrays, so no apply returns or keeps a view of it
    cfg, t = cfg_for(grid, drifts=((0.3,), (-0.2,))), 2.0 ** -6
    run_maxima = {}
    shared = [_StepKernel(cfg, a, t, run_maxima, warm=True) for a in cfg.model.actions]
    own = [_StepKernel(cfg, a, t, {}, warm=True) for a in cfg.model.actions]
    assert len(run_maxima) == 1 and shared[0].merged is shared[1].merged
    assert own[0].merged is not own[1].merged
    f = named_field(grid, "tanh")
    for _ in range(4):
        first = shared[0].apply(f)
        kept = first.copy()
        second = shared[1].apply(f)
        assert np.array_equal(first, kept)
        assert np.array_equal(first, own[0].apply(f))
        assert np.array_equal(second, own[1].apply(f))
        f = ScalarField(grid, np.minimum(first, second))
    assert all(k.paid is not None for k in shared)
    # compose runs the same four steps through kernels of its own
    assert np.array_equal(compose(cfg, dyadic_partition(4 * t, 6), named_field(grid, "tanh")).values,
                          f.values)


def test_cached_action_values_share_one_run_max_array(grid):
    # the cold kernels of a cache share one array per shape, across actions
    # and times; each action's values are those of an uncached call
    cfg = cfg_for(grid, drifts=((0.3,), (-0.2,)))
    f, cache = named_field(grid, "tanh"), {}
    for t in (2.0 ** -6, 2.0 ** -4):
        cached = action_values(cfg, t, f, cache)
        for got, fresh in zip(cached, action_values(cfg, t, f)):
            assert np.array_equal(got, fresh)
    kernels = list(cache.values())
    assert len(kernels) == 4 and all(k.merged is kernels[0].merged for k in kernels)


def test_merged_costs_match_unmerged_solve(grid):
    # the kernel's max over each run of equal cost, solved over the distinct
    # costs, equals the solve over all its unmerged values, bitwise; those
    # equal ``eval`` at the points bitwise for point stencils (OU) and
    # within rounding for shift stencils (Brownian)
    g2 = Grid((-3.0, -3.0), (3.0, 3.0), (17, 17))
    model2 = brownian_model([[0.5, 0.0], [-0.5, 0.0]], np.eye(2), dim=2)
    cfg2 = OperatorConfig(
        model=model2, m=0.25, grid=g2, quad_order=4, cand_per_side=3
    )
    f2 = ScalarField.from_function(g2, lambda x, y: np.sin(x) * np.cos(0.7 * y) + 0.1 * x)
    ou = ReferenceModel(
        [Action("a0", sigma=np.array([[0.8]]), theta=np.array([[1.0]]), drift=np.array([0.2]))],
    )
    cfg_ou = OperatorConfig(model=ou, m=0.5, grid=grid)
    cases = [(cfg_for(grid), named_field(grid, "tanh")), (cfg2, f2), (cfg_ou, named_field(grid, "sin"))]
    for cfg, f in cases:
        for t in (1.0, 2.0 ** -4):
            for act in cfg.model.actions:
                kernel = _StepKernel(cfg, act, t, {})
                pts, costs = kernel_points(cfg, act, t)
                values = kernel_values(kernel, f)
                assert kernel.costs.size < costs.size
                expected, _ = solve_batch(values, costs, kernel.weights, kernel.radius, kernel.p)
                assert np.array_equal(kernel.apply(f), expected)
                if cfg is cfg_ou:
                    assert isinstance(kernel.stencil, Stencil)
                    assert np.array_equal(values, f.eval(pts))
                else:
                    assert np.max(np.abs(values - f.eval(pts))) <= SHIFT_TOL


def test_brownian_is_ou_with_zero_theta(grid):
    # an action without theta is the OU flow with theta = 0: the same flow,
    # covariance, law and step, bitwise, both through a shift stencil
    g2 = Grid((-3.0, -3.0), (3.0, 3.0), (17, 17))
    f2 = ScalarField.from_function(g2, lambda x, y: np.sin(x) * np.cos(0.7 * y) + 0.1 * x)
    cases = [
        (grid, [0.3], [[0.9]], named_field(grid, "tanh")),
        (g2, [0.3, -0.2], [[0.9, 0.0], [0.0, 0.7]], f2),
    ]
    for g, b, sigma, f in cases:
        d = g.dim
        bm = brownian_model([b], sigma, dim=d)
        ou = ReferenceModel(
            [Action("a0", sigma=np.array(sigma), theta=np.zeros((d, d)), drift=np.array(b))],
            dim=d,
        )
        cfgs = [
            OperatorConfig(model=model, m=0.4, grid=g, quad_order=8, cand_per_side=4)
            for model in (bm, ou)
        ]
        for t in (0.25, 2.0 ** -5):
            assert np.array_equal(psi(bm.actions[0], t, g.nodes()), psi(ou.actions[0], t, g.nodes()))
            assert np.array_equal(covariance(bm.actions[0], t), covariance(ou.actions[0], t))
            mu, nu = law(bm.actions[0], t, 8), law(ou.actions[0], t, 8)
            assert np.array_equal(mu.atoms, nu.atoms) and np.array_equal(mu.weights, nu.weights)
            assert np.array_equal(dro_step(cfgs[0], t, f).values, dro_step(cfgs[1], t, f).values)
            for cfg in cfgs:
                assert isinstance(_StepKernel(cfg, cfg.model.actions[0], t, {}).stencil, ShiftStencil)


def test_warm_kernel_solves_its_first_two_applies_cold(grid):
    # one default step at dt = 2^-8, applied to its own output: a warm
    # kernel's first two applies start from lam = 0, as a cold kernel's do,
    # and give its outputs bit for bit; only then does it hold the
    # multipliers a window starts from
    cfg = cfg_for(grid)
    act = cfg.model.actions[0]
    warm, cold = _StepKernel(cfg, act, 2.0 ** -8, {}, warm=True), _StepKernel(cfg, act, 2.0 ** -8, {})
    values = named_field(grid, "tanh").values
    for _ in range(2):
        out = warm.apply(ScalarField(grid, values))
        assert np.array_equal(out, cold.apply(ScalarField(grid, values)))
        values = out
    assert cold.lam is None and warm.prev.shape == warm.lam.shape == (grid.num_nodes,)
    assert np.all(warm.lam > 0)


def test_windows_start_at_a_kernels_third_apply(grid, monkeypatch):
    # each composed step's dual goes through ``solve_window`` once its
    # kernel has applied twice, and through ``solve_batch`` before that
    from drolimit import operators

    paths = []

    def counted(name, solve):
        def count(*args):
            paths.append(name)
            return solve(*args)
        return count

    monkeypatch.setattr(operators, "solve_batch", counted("batch", operators.solve_batch))
    monkeypatch.setattr(operators, "solve_window", counted("window", operators.solve_window))
    # the game-2d geometry at t = 1/2, level 2: two steps of 1/4 per action
    g2 = Grid((-6.0, -6.0), (6.0, 6.0), (49, 49))
    cfg2 = OperatorConfig(
        model=brownian_model([[-0.5, 0.0], [0.5, 0.0]], np.eye(2), dim=2),
        m=0.25, grid=g2, quad_order=8, cand_per_side=4,
    )
    f2 = ScalarField.from_function(g2, lambda x, y: np.sin(x) * np.cos(0.7 * y))
    compose(cfg2, dyadic_partition(0.5, 2), f2)
    assert paths == ["batch"] * 4
    paths.clear()
    compose(cfg_for(grid), dyadic_partition(2.0 ** -4, 8), named_field(grid, "tanh"))
    assert paths == ["batch"] * 2 + ["window"] * 14


def test_compose_is_a_function_of_its_inputs(grid):
    # each call builds its own kernels, so no multiplier outlives a call
    cfg = cfg_for(grid, drifts=((-0.5,), (0.5,)))
    f = named_field(grid, "tanh")
    part = dyadic_partition(0.25, 4)
    assert np.array_equal(compose(cfg, part, f).values, compose(cfg, part, f).values)


def test_compose_warm_starts_its_steps(grid, monkeypatch):
    # the 16 steps of dt = 2^-8 of one composition evaluate D on at most 70%
    # as many nodes as the same steps taken one by one, each from lam = 0
    widths = []
    best = dual._best_candidates

    def counted(g, costs, lam):
        widths.append(g.shape[2])
        return best(g, costs, lam)

    monkeypatch.setattr(dual, "_best_candidates", counted)
    cfg, f = cfg_for(grid), named_field(grid, "tanh")
    part = dyadic_partition(2.0 ** -4, 8)
    composed = compose(cfg, part, f)
    warm = sum(widths)
    widths.clear()
    out = f
    for gap in part.gaps:
        out = dro_step(cfg, gap, out)
    assert sum(widths) > 0 and warm <= 0.7 * sum(widths)
    assert np.max(np.abs(composed.values - out.values)) <= 1e-14


def test_shared_cache_changes_no_step(grid):
    # the kernels ``dro_step`` caches are cold: a step's output does not
    # depend on what the cache's kernels solved before
    cfg = cfg_for(grid, drifts=((-0.5,), (0.5,)))
    fields = [named_field(grid, name) for name in ("tanh", "sin")]
    alone = [dro_step(cfg, 2.0 ** -6, f).values for f in fields]
    for order in ((0, 1), (1, 0)):
        cache = {}
        for k in order + order:
            assert np.array_equal(dro_step(cfg, 2.0 ** -6, fields[k], cache).values, alone[k])


def test_one_cache_serves_two_configs():
    # the cache is keyed by config as well: the m = 0 step taken after the
    # robust one on a shared cache is the m = 0 step
    g = Grid(-8.0, 8.0, 129)
    cfg = cfg_for(g)
    bellman_cfg = replace(cfg, m=0.0)
    f = named_field(g, "tanh")
    cache = {}
    robust = dro_step(cfg, 0.1, f, cache)
    bellman = dro_step(bellman_cfg, 0.1, f, cache)
    assert np.array_equal(bellman.values, dro_step(bellman_cfg, 0.1, f).values)
    assert np.array_equal(robust.values, dro_step(cfg, 0.1, f, cache).values)
    assert len(cache) == 2


def test_step_refuses_field_on_other_grid(grid):
    other = Grid(-8.0, 8.0, 257)
    for t in (0.25, 0.0):
        with pytest.raises(InputError, match="different grids"):
            dro_step(cfg_for(grid), t, ScalarField(other, np.full(other.shape, 1.0)))


def test_zero_step_returns_the_field_bitwise(grid):
    # at t = 0 each kernel has a point-mass law, radius 0 and shift 0, so the
    # step gives f's values bitwise under either reduction; a theta != 0 flow
    # lands within 1e-12 cells of the nodes and is snapped back to them
    g2 = Grid((-3.0, -3.0), (3.0, 3.0), (17, 17))
    theta2 = np.array([[1.0, 0.3], [0.3, 0.5]])
    models = [
        (grid, brownian_model([[-0.5], [0.5]], [[1.0]])),
        (grid, ReferenceModel([Action("a0", drift=[0.2], sigma=[[1.0]], theta=[[0.7]])])),
        (g2, ReferenceModel([Action("a0", drift=[0.2, -0.1], sigma=np.eye(2), theta=theta2)], dim=2)),
    ]
    rng = np.random.default_rng(12)
    for g, model in models:
        cfg = OperatorConfig(
            model=model, m=0.5, grid=g, quad_order=4, cand_per_side=4
        )
        f = ScalarField(g, rng.standard_normal(g.shape))
        for reduce in (np.minimum, np.maximum):
            assert np.array_equal(dro_step(cfg, 0.0, f, reduce=reduce).values, f.values)


def test_two_dimensional_default_step_builds():
    # 4225 nodes x 256 atoms x 797 candidates (98 distinct costs) at 16 per
    # side: a shift stencil holds the merged values, not the 862M evaluation
    # points; the default 12 per side has 441 candidates (59 distinct costs)
    g2 = Grid((-6.0, -6.0), (6.0, 6.0), (65, 65))
    model = brownian_model([[0.0, 0.0]], np.eye(2), dim=2)
    cfg = OperatorConfig(model=model, m=0.5, grid=g2, cand_per_side=16)
    kernel = _StepKernel(cfg, cfg.model.actions[0], 0.25, {})
    assert kernel.stencil.cells.shape == (2, 797, 256)
    assert kernel.costs.size == 98
    cfg = OperatorConfig(model=model, m=0.5, grid=g2)
    kernel = _StepKernel(cfg, cfg.model.actions[0], 0.25, {})
    assert kernel.stencil.cells.shape == (2, 441, 256)
    assert kernel.costs.size == 59


def test_two_dimensional_step_refused_beyond_memory():
    # 263169 nodes x 4096 atoms x 12853 candidates: refused with the projected
    # size before the evaluation points are built
    g2 = Grid((-6.0, -6.0), (6.0, 6.0), (513, 513))
    model = brownian_model([[0.0, 0.0]], np.eye(2), dim=2)
    cfg = OperatorConfig(
        model=model, m=0.5, grid=g2, quad_order=64, cand_per_side=64
    )
    with pytest.raises(InputError, match="GB of evaluation points"):
        dro_step(cfg, 0.25, ScalarField(g2, np.full(g2.shape, 1.0)))


def test_memory_guard_refuses_one_byte_short(grid, monkeypatch):
    # one apply holds 12 bytes per run max (the (D, Q, N) maxima, and the
    # half of them that the dual solve may gather) and four (Q, N)
    # temporaries; a 1-d shift stencil two arrays of the largest run's rows,
    # a point stencil (OU) one, and a 2-d shift stencil none; a point stencil
    # adds 4 + 8 d bytes per point, and a warm kernel's windowed applies the
    # stored run and the window's arrays of every atom and node
    ou = ReferenceModel(
        [Action("a0", sigma=np.array([[1.0]]), theta=np.array([[1.0]]), drift=np.array([0.0]))],
    )
    g2 = Grid((-3.0, -3.0), (3.0, 3.0), (17, 17))
    cfg2 = OperatorConfig(
        model=brownian_model([[0.5, 0.0]], np.eye(2), dim=2), m=0.25,
        grid=g2, quad_order=4, cand_per_side=3,
    )
    nq, nq2 = 513 * 16, 289 * 16
    cases = [
        # 33 candidates in 17 runs of at most 2
        (cfg_for(grid, cand_per_side=16), False, 12 * nq * 17 + 8 * nq * (4 + 2 * 2)),
        (OperatorConfig(model=ou, m=0.5, grid=grid, cand_per_side=16), False,
         12 * nq * 17 + 8 * nq * (4 + 1 * 2) + 12 * nq * 33),
        # 29 lattice points in the disk, 7 runs of at most 8
        (cfg2, False, 12 * nq2 * 7 + 8 * nq2 * 4),
        # a warm kernel's windows add 152 bytes per atom and node
        (cfg_for(grid, cand_per_side=16), True,
         12 * nq * 17 + 8 * nq * (4 + 2 * 2) + 152 * nq),
        (cfg2, True, 12 * nq2 * 7 + 8 * nq2 * 4 + 152 * nq2),
    ]
    for cfg, warm, need in cases:
        for have in (need, need - 1):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
            monkeypatch.setattr(os, "sysconf", pages.__getitem__)
            if have < need:
                with pytest.raises(InputError, match="GB of evaluation points"):
                    _StepKernel(cfg, cfg.model.actions[0], 0.25, {}, warm)
            else:
                _StepKernel(cfg, cfg.model.actions[0], 0.25, {}, warm)


def test_memory_guard_refuses_a_huge_lattice_before_building_it(grid, monkeypatch):
    # 10^12 candidates per side cost at least 10^12 + 1 distinct amounts, far
    # beyond 8 GB: refused without building the lattice; at m = 0 the
    # lattice is the stay option alone and the kernel builds
    from drolimit import operators

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 * 10 ** 6}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    radius_offsets = operators._radius_offsets

    def unbuilt(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(operators, "_radius_offsets", unbuilt)
    huge = [
        OperatorConfig(brownian_model([[0.5]], [[1.0]]), m, grid, cand_per_side=10 ** 12)
        for m in (0.5, 0.0)
    ]
    for warm in (False, True):
        with pytest.raises(InputError, match="GB of evaluation points"):
            _StepKernel(huge[0], huge[0].model.actions[0], 0.25, {}, warm)
    monkeypatch.setattr(operators, "_radius_offsets", radius_offsets)
    assert _StepKernel(huge[1], huge[1].model.actions[0], 0.25, {}).costs.tolist() == [0.0]


def test_config_validation(grid, window):
    model = brownian_model([[0.0, 0.0]], np.eye(2), dim=2)
    with pytest.raises(InputError):
        OperatorConfig(model=model, m=0.1, grid=grid)
    with pytest.raises(InputError):
        scaling_limit(
            cfg_for(grid), 0.5, named_field(grid, "tanh"), window, max_level=11
        )


def test_scaling_limit_refuses_long_horizon_before_composing(monkeypatch, grid, window):
    # t = 100 has more than MAX_GAPS dyadic gaps at level 10: refused up
    # front, not after composing levels 0-9
    from drolimit import operators

    calls = []
    monkeypatch.setattr(operators, "compose", lambda *a: calls.append(a))
    with pytest.raises(InputError, match="dyadic gaps at level 10"):
        scaling_limit(cfg_for(grid), 100.0, named_field(grid, "tanh"), window, max_level=10)
    assert calls == []


@pytest.mark.parametrize("m, p", [(1e160, 2.0), (0.5, 400.0)])
def test_lattice_whose_costs_overflow_or_underflow_is_refused(grid, m, p):
    # at m = 1e160 every nonzero offset's distance overflows to inf and the
    # disk keeps only the stay point, so the step would be the m = 0 step;
    # at p = 400 and radius 1/8 the costs of 8 of the 32 other offsets
    # underflow to 0, and those candidates would move for free
    with pytest.raises(InputError, match="overflow or underflow; choose another ambiguity.m"):
        dro_step(cfg_for(grid, m=m, p=p), 0.25, named_field(grid, "tanh"))


@pytest.mark.parametrize("call, message", [
    (lambda grid, window: cfg_for(grid, cand_per_side=0), "cand_per_side must be >= 1"),
    (lambda grid, window: scaling_limit(cfg_for(grid), 0.5, named_field(grid, "tanh"), window,
                                        stop_tol=-1.0),
     "stop_tol must be nonnegative"),
])
def test_operator_refusals(grid, window, call, message):
    with pytest.raises(InputError, match=message):
        call(grid, window)
