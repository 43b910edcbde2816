import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from drolimit import (
    CompactWindow, Grid, InputError, OperatorConfig, ScalarField, brownian_model,
)
from drolimit import operators, validation
from drolimit.operators import dro_step
from drolimit.validation import (
    anchor_check,
    check_dual_oracle,
    check_generator,
    check_operator_properties,
    check_refinement_monotonicity,
    check_semigroup,
    check_sensitivity,
    cross_check_pde,
    fourier_field,
    named_field,
    normal_cdf,
    refined_config,
    refinement_certificates,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(-8.0, 8.0, 513)


@pytest.fixture(scope="module")
def window():
    return CompactWindow((-4.0,), (4.0,))


def cfg_for(grid, m=0.5):
    return OperatorConfig(
        model=brownian_model([[0.0]], [[1.0]]), m=m, grid=grid
    )


def test_normal_cdf():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    arr = normal_cdf(np.array([-1.0, 1.0]))
    assert arr[0] + arr[1] == pytest.approx(1.0)


def test_fourier_field_bounded(grid):
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = fourier_field(grid, rng)
        assert f.sup_norm() <= 1.0 + 1e-12


def test_fourier_field_2d_is_seeded_and_bounded():
    g = Grid((-6.0, -6.0), (6.0, 6.0), (17, 13))
    f = fourier_field(g, np.random.default_rng(3))
    again = fourier_field(g, np.random.default_rng(3))
    assert f.values.shape == (17, 13)
    assert f.values.tobytes() == again.values.tobytes()
    assert f.sup_norm() <= 1.0 + 1e-12


def test_cdf_identity_quadrature_oracle():
    # E Phi(x + c + W_t) = Phi((x + c)/sqrt(1 + t)): the anchor behind the
    # monotone-data closed form, verified by plain Gauss-Hermite quadrature
    nodes, wts = np.polynomial.hermite.hermgauss(64)
    wts = wts / math.sqrt(math.pi)
    for t, c, x in [(1.0, 0.5, 0.0), (0.5, 0.2, -1.0), (0.25, 0.0, 2.0)]:
        samples = x + c + math.sqrt(2.0 * t) * nodes
        lhs = float(wts @ normal_cdf(samples))
        rhs = normal_cdf((x + c) / math.sqrt(1.0 + t))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_check_sensitivity_trivial_cases(grid, window):
    cfg0 = cfg_for(grid, m=0.0)
    f = named_field(grid, "sin")
    rep = check_sensitivity(cfg0, f, t_list=(0.1, 0.05), window=window)
    assert rep.passed
    assert dict(rep.measured)["final_error"] <= 1e-9
    const = named_field(grid, "constant")
    rep = check_sensitivity(cfg_for(grid, m=1.0), const, t_list=(0.1, 0.05), window=window)
    assert rep.passed and dict(rep.measured)["final_error"] <= 1e-9


def test_sensitivity_matches_l2_oracle(grid, window):
    # the finite-t quotient equals m * ||grad f||_{L2(mu_t)} up to O(t):
    # for f = sin this is m sqrt((1 + e^{-2t} cos 2x)/2)
    cfg = cfg_for(grid, m=1.0)
    f = named_field(grid, "sin")
    mask = window.mask(grid)
    x = grid.axes[0]
    for t in (0.1, 0.05):
        quotient = (dro_step(cfg, t, f).values - dro_step(replace(cfg, m=0.0), t, f).values) / t
        theory = np.sqrt(0.5 * (1.0 + math.exp(-2 * t) * np.cos(2 * x)))
        assert np.max(np.abs(quotient - theory)[mask]) <= 1.2 * t


def test_check_generator_linear_case(grid, window):
    # m=0 single action: (T(t)f - f)/t -> 1/2 f'' ; for cos at 0 the quotient
    # (e^{-t/2} - 1)/t is within 0.05 of -1/2 at t=0.05
    cfg0 = cfg_for(grid, m=0.0)
    f = named_field(grid, "cos")
    rep = check_generator(cfg0, f, t_list=(0.1, 0.05), window=window)
    assert rep.passed
    quotient_at0 = (math.exp(-0.025) - 1.0) / 0.05
    assert quotient_at0 == pytest.approx(-0.5, abs=0.05)


def test_check_semigroup_trivial_pair(grid, window):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "tanh")
    rep = check_semigroup(cfg, f, pairs=((0.0, 0.25),), window=window, stop_tol=1e-3)
    assert rep.passed
    assert dict(rep.measured)["gap_s=0_t=0.25"] <= 1e-12


def test_check_semigroup_second_pair(grid, window):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "tanh")
    rep = check_semigroup(cfg, f, pairs=((0.5, 0.25),), window=window, stop_tol=1e-3)
    assert rep.passed


def test_check_operator_properties_small(grid):
    cfg = cfg_for(grid, m=0.5)
    rep = check_operator_properties(cfg, trials=5, seed=0, t_list=(0.1,))
    assert rep.passed
    vals = dict(rep.measured)
    assert vals["contraction"] <= 1e-9
    assert vals["monotonicity"] <= 1e-9
    assert vals["translation"] <= 1e-12


def test_property_suite_shares_the_applies_of_each_field(monkeypatch):
    # per gap, every trial applies each action to f, g and f + |g - f|; the
    # first 10 also to f + 1, lam f for three lam, f + g and, at m = 0, f.
    # The robust and best-case steps of f (and of g) reduce one apply per
    # action: 2 applies fewer per action than separate steps
    applies = []
    apply = operators._StepKernel.apply
    monkeypatch.setattr(
        operators._StepKernel, "apply", lambda self, f: applies.append(1) or apply(self, f)
    )
    grid = Grid(-4.0, 4.0, 33)
    for drifts in ([[0.0]], [[-0.5], [0.5]]):
        cfg = OperatorConfig(
            brownian_model(drifts, [[1.0]]), 0.5, grid,
            quad_order=4, cand_per_side=2,
        )
        applies.clear()
        assert check_operator_properties(cfg, trials=12, seed=0, t_list=(0.05, 0.1)).passed
        assert len(applies) == 2 * len(drifts) * (10 * 9 + 2 * 3)


def test_check_dual_oracle_small():
    rep = check_dual_oracle(trials=50, seed=0)
    assert rep.passed
    assert dict(rep.measured)["excess_over_resolution"] <= 1e-6


def test_checks_refuse_zero_trials(grid):
    # zero trials would pass on no evidence, with -inf as the worst gap
    with pytest.raises(InputError, match="at least one trial"):
        check_dual_oracle(trials=0)
    with pytest.raises(InputError, match="at least one trial"):
        check_operator_properties(cfg_for(grid), trials=0)


def test_checks_refuse_no_pairs_and_no_or_unknown_anchors(grid, window):
    # no pairs or no anchors would pass on no evidence, like zero trials
    with pytest.raises(InputError, match="one or more semigroup pairs"):
        check_semigroup(cfg_for(grid), named_field(grid, "tanh"), window, pairs=[])
    with pytest.raises(InputError, match="one or more certifiable experiments"):
        refinement_certificates(cfg_for(grid), window, experiments=())
    with pytest.raises(InputError, match="unknown certifiable experiment 'foo'"):
        anchor_check(cfg_for(grid), window, "foo")
    # a repeat would run again and write one label twice under one gate
    with pytest.raises(InputError, match=r"repeated semigroup pair \(0.25, 0.25\)"):
        check_semigroup(cfg_for(grid), named_field(grid, "tanh"), window, pairs=[(0.25, 0.25)] * 2)
    with pytest.raises(InputError, match="repeated certifiable experiment 'cdf_anchor'"):
        refinement_certificates(cfg_for(grid), window, experiments=("cdf_anchor", "cdf_anchor"))


def test_checks_refuse_horizons_with_one_partition(grid, window):
    # a horizon or pair time at most 2^-max_level has one dyadic partition
    # at every level, so its limit measures no level gap
    f = named_field(grid, "tanh")
    with pytest.raises(InputError, match="one dyadic partition at every level up to 8"):
        cross_check_pde(cfg_for(grid), f, 0.001, window)
    with pytest.raises(InputError, match="one dyadic partition at every level up to 0"):
        cross_check_pde(cfg_for(grid), f, 0.5, window, max_level=0)
    with pytest.raises(InputError, match="one dyadic partition at every level up to 8"):
        check_semigroup(cfg_for(grid), f, window, pairs=[(0.25, 0.001)])
    # the generator's limits stop at level 6
    with pytest.raises(InputError, match="t = 0.01 has one dyadic partition at every level up to 6"):
        check_generator(cfg_for(grid), f, window, t_list=(0.02, 0.01))


def test_refinement_check_refuses_no_level_gap(window):
    # with no level gap the worst increase would stay -inf and pass, and
    # report.json would hold -Infinity
    g = Grid(-8.0, 8.0, 65)
    cfg, f = cfg_for(g), named_field(g, "tanh")
    for levels in (0, -3, 2.5):
        with pytest.raises(InputError):
            check_refinement_monotonicity(cfg, f, window, t=0.5, levels=levels)
    with pytest.raises(InputError, match="need one or more positive times"):
        check_refinement_monotonicity(cfg, f, window, t=0.0, levels=3)


def test_property_check_refuses_no_times():
    # no times would leave all seven values at -inf, a pass on no evidence
    g = Grid(-8.0, 8.0, 65)
    with pytest.raises(InputError, match="need one or more positive times"):
        check_operator_properties(cfg_for(g), trials=1, t_list=())


def test_checks_refuse_levels_that_are_not_whole_numbers():
    # a level of 2.5 would measure non-dyadic partitions; 8.0, as a config
    # may spell level 8, is level 8
    validation.validate_limit_time(0.25, 8.0)
    for check in (validation.validate_limit_time, validation.validate_horizon):
        with pytest.raises(InputError, match="whole level"):
            check(0.25, 2.5)


def test_cross_check_refuses_a_closed_form_that_is_not_finite(grid, window, monkeypatch):
    # refused before the scaling limit runs, not reported as a NaN error
    def no_limit(*args, **kwargs):
        raise AssertionError("the scaling limit ran")

    monkeypatch.setattr(validation, "scaling_limit", no_limit)
    with pytest.raises(InputError, match="finite"):
        cross_check_pde(
            cfg_for(grid), named_field(grid, "cos"), 0.5, window,
            reference=lambda x: np.where(x > 0.0, np.nan, np.cos(x)),
        )


def test_check_dual_oracle_deterministic():
    a = check_dual_oracle(trials=20, seed=7)
    b = check_dual_oracle(trials=20, seed=7)
    assert a.measured == b.measured


def test_refinement_monotonicity_small(grid, window):
    cfg = cfg_for(grid, m=0.5)
    f = named_field(grid, "tanh")
    rep = check_refinement_monotonicity(cfg, f, t=0.5, levels=4, window=window)
    assert rep.passed
    assert dict(rep.measured)["max_refinement_increase"] <= 1e-8


def test_cross_check_pde_heat(grid, window):
    cfg = cfg_for(grid, m=0.0)
    u0 = named_field(grid, "cos")
    ref = lambda x: math.exp(-0.25) * np.cos(x)
    rep = cross_check_pde(
        cfg, u0, 0.5, window=window, stop_tol=1e-4, tol=5e-3,
        reference=ref,
    )
    assert rep.passed
    vals = dict(rep.measured)
    assert vals["operator_pde_gap"] <= 5e-3
    assert vals["limit_vs_reference"] <= 5e-3


def test_cross_check_pde_2d_closed_form():
    # heat flow of cos x cos y: e^{-t} cos x cos y; the operator limit's
    # h^2/dt interpolation bias at 33^2 nodes is not gated here
    g2 = Grid((-6.0, -6.0), (6.0, 6.0), (33, 33))
    cfg = OperatorConfig(
        brownian_model([[0.0, 0.0]], np.eye(2), dim=2), 0.0, g2,
        quad_order=4, cand_per_side=2,
    )
    u0 = ScalarField.from_function(g2, lambda x, y: np.cos(x) * np.cos(y))
    rep = cross_check_pde(
        cfg, u0, 0.25, CompactWindow((-3.0, -3.0), (3.0, 3.0)), max_level=4,
        reference=lambda x, y: math.exp(-0.25) * np.cos(x) * np.cos(y),
    )
    assert dict(rep.measured)["pde_vs_reference"] <= 5e-3


def test_anchor_pde_route_uses_the_given_cfl_safety(grid, window):
    expected = {0.8: (2.22e-5, 1.138e-4), 0.5: (7.92e-6, 1.281e-4)}
    for cfl_safety, (pde_err, gap) in expected.items():
        vals = dict(anchor_check(cfg_for(grid), window, "heat_anchor", cfl_safety).measured)
        assert vals["pde_vs_reference"] == pytest.approx(pde_err, rel=1e-2)
        assert vals["operator_pde_gap"] == pytest.approx(gap, rel=1e-3)


def test_refined_config_doubles(grid):
    cfg = replace(cfg_for(grid), cand_per_side=16)
    fine = refined_config(cfg)
    assert fine.grid.n == (1025,)
    assert fine.quad_order == 32
    assert fine.cand_per_side == 32


def test_refinement_certificate_heat(grid, window):
    cfg = cfg_for(grid)
    base = anchor_check(cfg, window, "heat_anchor")
    rep = refinement_certificates(
        cfg, window, experiments=("heat_anchor",), base_reports={"heat_anchor": base}
    )
    assert rep.passed
    assert dict(rep.measured)["change_heat_anchor"] <= 2.5e-3
    assert rep.thresholds["change_heat_anchor"] == 2.5e-3


def test_game_certificate_composes_only_for_its_pde_check(monkeypatch, window):
    # the certificate reads the game's operator-PDE gap alone, so neither
    # resolution runs the matched-level dominance compositions
    callers = []
    for module in (operators, validation):
        def recorded(*args, compose=getattr(module, "compose")):
            callers.append([frame.function for frame in inspect.stack(context=0)])
            return compose(*args)

        monkeypatch.setattr(module, "compose", recorded)
    cfg = OperatorConfig(
        brownian_model([[0.0]], [[1.0]]), 0.5, Grid(-6.0, 6.0, 65),
        quad_order=4, cand_per_side=2,
    )
    rep = refinement_certificates(cfg, window, experiments=("game_crosscheck",))
    assert [label for label, _ in rep.measured] == ["change_game_crosscheck"]
    assert callers and all("cross_check_pde" in stack for stack in callers)


def test_report_serialization(grid, window):
    rep = check_dual_oracle(trials=5, seed=0)
    d = rep.to_dict()
    assert d["runtime_seconds"] is None
    assert d["passed"] is True
    import json

    json.dumps(d)  # must be serializable


def test_named_fields_are_one_dimensional():
    with pytest.raises(InputError, match="named test functions are one-dimensional"):
        named_field(Grid((-1.0, -1.0), (1.0, 1.0), (9, 9)), "sin")
