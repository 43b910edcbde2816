import math

import numpy as np
import pytest

from drolimit import (
    Action,
    CompactWindow,
    Grid,
    InputError,
    OperatorConfig,
    ReferenceModel,
    ScalarField,
    brownian_model,
    cfl_time_step,
    generator_apply,
    solve,
    step_forward,
    sup_distance,
)
from drolimit.pde import MAX_STEPS, SpaceTimeField, time_step
from drolimit.validation import named_field, normal_cdf


@pytest.fixture(scope="module")
def grid():
    return Grid(-8.0, 8.0, 513)


@pytest.fixture(scope="module")
def window():
    return CompactWindow((-4.0,), (4.0,))


def cfg_for(grid, m=0.5, drifts=((0.0,),), sigma=1.0):
    return OperatorConfig(
        model=brownian_model([list(b) for b in drifts], [[sigma]]),
        m=m,
        grid=grid,
    )


def test_cfl_bound_formula(grid):
    cfg = cfg_for(grid, m=0.5, drifts=((0.3,),), sigma=1.0)
    h = grid.spacing[0]
    expect = 0.8 / (1.0 / h ** 2 + (0.3 + 0.5) / h)
    assert cfl_time_step(cfg, 0.8) == pytest.approx(expect)


def test_cfl_violation_rejected(grid):
    cfg = cfg_for(grid)
    v = named_field(grid, "cos")
    with pytest.raises(InputError):
        step_forward(cfg, 0.8, v, dt=1.0)


def test_cfl_safety_outside_unit_interval_refused(grid):
    cfg = cfg_for(grid)
    v = named_field(grid, "cos")
    for cfl_safety in (0.0, 1.5):
        with pytest.raises(InputError, match="cfl_safety"):
            cfl_time_step(cfg, cfl_safety)
        with pytest.raises(InputError, match="cfl_safety"):
            solve(cfg, cfl_safety, v, 0.1)


def test_solve_refuses_more_than_max_steps(grid):
    # refused before the first step, at one step past the bound
    cfg, cfl_safety = cfg_for(grid), 0.8
    dt = cfl_time_step(cfg, cfl_safety)
    assert time_step(cfg, cfl_safety, MAX_STEPS * dt) == dt
    v = named_field(grid, "cos")
    with pytest.raises(InputError, match=f"more than {MAX_STEPS} time steps"):
        solve(cfg, cfl_safety, v, (MAX_STEPS + 1) * dt)
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="horizon must be nonnegative and finite"):
            solve(cfg, cfl_safety, v, horizon)


def test_step_builds_its_coefficients_once(monkeypatch, grid):
    # one table per step: the CFL bound and the update both read it
    from drolimit import pde

    builds = []
    build = pde._coefficients
    monkeypatch.setattr(pde, "_coefficients", lambda cfg: builds.append(1) or build(cfg))
    cfg = cfg_for(grid, m=0.5, drifts=((0.3,), (-0.2,)))
    step_forward(cfg, 0.8, named_field(grid, "cos"))
    step_forward(cfg, 0.8, named_field(grid, "cos"), dt=1e-4)
    assert len(builds) == 2


def test_zero_generator_leaves_field(grid):
    cfg = cfg_for(grid, m=0.0, drifts=((0.0,),), sigma=0.0)
    v = named_field(grid, "tanh")
    out = step_forward(cfg, 0.8, v, dt=0.01)
    assert np.array_equal(out.values, v.values)


def test_affine_gradient_source(grid):
    # v = c x, sigma = 0, b = 0, m = 1: interior update is v + dt |c|
    cfg = cfg_for(grid, m=1.0, sigma=0.0)
    c = -1.7
    v = ScalarField.from_function(grid, lambda x: c * x)
    dt = 0.5 * cfl_time_step(cfg, 0.8)
    out = step_forward(cfg, 0.8, v, dt=dt)
    interior = slice(1, -1)
    assert np.allclose(out.values[interior], v.values[interior] + dt * abs(c), atol=1e-12)


def test_constant_preserved(grid):
    cfg = cfg_for(grid, m=0.7)
    v = ScalarField(grid, np.full(grid.shape, 3.3))
    out = step_forward(cfg, 0.8, v)
    assert np.allclose(out.values, 3.3, atol=1e-14)


def test_step_monotone_in_data(grid):
    rng = np.random.default_rng(0)
    cfg = cfg_for(grid, m=0.5, drifts=((0.4,),))
    dt = cfl_time_step(cfg, 0.8)
    for _ in range(20):
        u = rng.standard_normal(grid.shape)
        v = u + rng.random(grid.shape)
        su = step_forward(cfg, 0.8, ScalarField(grid, u), dt=dt)
        sv = step_forward(cfg, 0.8, ScalarField(grid, v), dt=dt)
        assert np.all(su.values <= sv.values + 1e-12)


def test_step_nonexpansive_linear_case(grid):
    rng = np.random.default_rng(1)
    cfg = cfg_for(grid, m=0.0, drifts=((0.4,),))
    dt = cfl_time_step(cfg, 0.8)
    for _ in range(10):
        u = rng.standard_normal(grid.shape)
        v = rng.standard_normal(grid.shape)
        su = step_forward(cfg, 0.8, ScalarField(grid, u), dt=dt)
        sv = step_forward(cfg, 0.8, ScalarField(grid, v), dt=dt)
        assert np.max(np.abs(su.values - sv.values)) <= np.max(np.abs(u - v)) + 1e-12


def test_gradient_source_nonnegative(grid):
    cfg = cfg_for(grid, m=0.8, sigma=0.0)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(grid.shape)
    out = step_forward(cfg, 0.8, ScalarField(grid, v))
    assert np.all(out.values >= v - 1e-14)


def test_generator_apply_values(grid):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "cos")
    gen = generator_apply(cfg, f)
    # at 0: -1/2 cos(0) + m |sin(0)| = -1/2 ; at pi/2: 0 + 0.5
    assert gen.eval(0.0) == pytest.approx(-0.5, abs=1e-3)
    assert gen.eval(math.pi / 2) == pytest.approx(0.5, abs=1e-3)
    const = ScalarField(grid, np.full(grid.shape, 2.0))
    assert generator_apply(cfg, const).sup_norm() == 0.0


def test_generator_apply_ou_drift(grid):
    model = ReferenceModel(
        [Action("a0", sigma=np.array([[1.0]]), theta=np.array([[0.7]]), drift=np.array([0.2]))],
    )
    cfg = OperatorConfig(model=model, m=0.0, grid=grid)
    f = named_field(grid, "cos")
    gen = generator_apply(cfg, f)
    x = 1.5
    expect = -0.5 * math.cos(x) + (-0.7 * x + 0.2) * (-math.sin(x))
    assert gen.eval(x) == pytest.approx(expect, abs=2e-3)


def test_step_consistent_with_generator(grid, window):
    cfg = cfg_for(grid, m=0.5, drifts=((0.3,),))
    f = named_field(grid, "cos")
    dt = cfl_time_step(cfg, 0.8)
    quotient = (step_forward(cfg, 0.8, f, dt=dt).values - f.values) / dt
    gen = generator_apply(cfg, f).values
    mask = window.mask(grid)
    # upwind versus central differences: first order in the spacing
    assert np.max(np.abs(quotient - gen)[mask]) <= 5 * grid.spacing[0]


def test_solve_heat_anchor(grid, window):
    cfg = cfg_for(grid, m=0.0)
    u0 = named_field(grid, "cos")
    run = solve(cfg, 0.8, u0, 0.5, snapshot_times=[0.0, 0.25, 0.5])
    assert run.times == [0.0, 0.25, 0.5]
    ref = ScalarField.from_function(grid, lambda x: math.exp(-0.25) * np.cos(x))
    assert sup_distance(run.at(0.5), ref, window) <= 5e-3
    const = solve(cfg, 0.8, ScalarField(grid, np.full(grid.shape, 1.5)), 0.4)
    assert np.allclose(const.at(0.4).values, 1.5, atol=1e-12)


def test_solve_cdf_anchor(grid, window):
    cfg = cfg_for(grid, m=0.5)
    u0 = named_field(grid, "normal_cdf")
    run = solve(cfg, 0.8, u0, 1.0)
    ref = ScalarField.from_function(grid, lambda x: normal_cdf((x + 0.5) / math.sqrt(2.0)))
    assert sup_distance(run.at(1.0), ref, window) <= 1e-2


def test_2d_requires_diagonal_diffusion():
    g2 = Grid((-4.0, -4.0), (4.0, 4.0), (33, 33))
    sigma = np.array([[1.0, 0.5], [0.0, 1.0]])
    model = brownian_model([[0.0, 0.0]], sigma, dim=2)
    cfg = OperatorConfig(model=model, m=0.1, grid=g2)
    with pytest.raises(InputError):
        cfl_time_step(cfg, 0.8)


def test_2d_heat_smoke():
    g2 = Grid((-6.0, -6.0), (6.0, 6.0), (49, 49))
    model = brownian_model([[0.0, 0.0]], np.eye(2), dim=2)
    cfg = OperatorConfig(model=model, m=0.0, grid=g2)
    u0 = ScalarField.from_function(g2, lambda x, y: np.cos(x) * np.cos(y))
    run = solve(cfg, 0.8, u0, 0.25)
    ref = ScalarField.from_function(g2, lambda x, y: math.exp(-0.25) * np.cos(x) * np.cos(y))
    w2 = CompactWindow((-2.0, -2.0), (2.0, 2.0))
    assert sup_distance(run.at(0.25), ref, w2) <= 2e-2


def test_snapshot_csv(tmp_path, grid):
    cfg = cfg_for(grid, m=0.0)
    run = solve(cfg, 0.8, named_field(grid, "cos"), 0.1, snapshot_times=[0.05, 0.1])
    path = tmp_path / "snaps.csv"
    run.save_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,value"


def test_snapshot_csv_2d(tmp_path):
    # one block of t,x,y,value rows per snapshot, nodes in C order, every
    # number written by repr so the values read back exactly
    g2 = Grid((-4.0, -3.0), (4.0, 3.0), (9, 11))
    model = brownian_model([[0.0, 0.0]], np.eye(2), dim=2)
    cfg = OperatorConfig(model=model, m=0.0, grid=g2)
    u0 = ScalarField.from_function(g2, lambda x, y: np.cos(x) * np.sin(y))
    run = solve(cfg, 0.8, u0, 0.1, snapshot_times=[0.0, 0.1])
    path = tmp_path / "snaps2.csv"
    run.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,value"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (2 * 9 * 11, 4)
    for k, t in enumerate(run.times):
        block = rows[k * 99 : (k + 1) * 99]
        assert np.all(block[:, 0] == t)
        assert np.array_equal(block[:, 1], np.repeat(g2.axes[0], 11))
        assert np.array_equal(block[:, 2], np.tile(g2.axes[1], 9))
        assert np.array_equal(block[:, 3], run.snapshots[k].values.ravel())


@pytest.mark.parametrize("call, message", [
    (lambda f: SpaceTimeField(f.grid, [0.0, 0.5], [f], 0.1, 5), "one snapshot per time required"),
    (lambda f: SpaceTimeField(f.grid, [0.0], [f], 0.1, 0).at(0.5), "no snapshot recorded at t=0.5"),
])
def test_space_time_field_refusals(grid, call, message):
    with pytest.raises(InputError, match=message):
        call(named_field(grid, "cos"))
