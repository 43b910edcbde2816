"""Acceptance suite: one test per criterion, one printed line per criterion.

Shared configuration: 1-d grid with 513 nodes on [-8, 8], window [-4, 4],
quadrature order 16, Wasserstein order p = 2, m = 1/2.  The suite runs the
battery of ``drolimit all`` (``validation.acceptance``) once, in a
module-scope fixture, and each criterion reads its reports: its gates, its
time bound from ``runtime_seconds``, and the parameters the battery ran it
with, so that a change to the battery shows here.

Criterion 5 is implemented exactly as stated and fails for an analytic
reason, not a solver defect: the one-period sensitivity quotient equals
m * ||grad f||_{L2(mu_t)} + O(t), which near an interior zero of grad f is
m |f''| sqrt(t) (1 + o(1)); at t = 0.025 this floor (~0.156) exceeds the
stated gate (0.05).  A companion assertion verifies the solver against the
closed-form finite-t value so the red status is attributable to the gate,
and the limit itself (monotone decrease of the error) is confirmed.  The
generator criterion does not inherit this floor: it measures the scaling
limit, whose dyadic steps smooth the gradient at the per-step scale
sqrt(dt), so the one-period anomaly vanishes along refinement.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from drolimit import (
    CompactWindow,
    Grid,
    OperatorConfig,
    brownian_model,
    dro_step,
)
from drolimit.validation import acceptance, named_field

GRID = Grid(-8.0, 8.0, 513)
WINDOW = CompactWindow((-4.0,), (4.0,))


def base_cfg(m: float) -> OperatorConfig:
    return OperatorConfig(model=brownian_model([[0.0]], [[1.0]], dim=1), m=m, p=2.0, grid=GRID)


def announce(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def reports():
    """Each report of the battery by name; the two refinement monotonicity
    reports, at the shared grid and at doubled resolution, as a pair."""
    battery = acceptance(base_cfg(0.5), WINDOW, cfl_safety=0.8, seed=0)
    by_name = {rep.name: rep for rep in battery}
    by_name["refinement_monotonicity"] = tuple(
        rep for rep in battery if rep.name == "refinement_monotonicity"
    )
    return by_name


def anchor_parameters(rep) -> dict:
    # an anchor's other parameters (its levels, gaps, convergence) are results
    return {k: rep.parameters[k] for k in ("horizon", "m", "stop_tol")}


def test_criterion_01_dual_oracle_equivalence(reports):
    rep = reports["dual_oracle_equivalence"]
    vals = dict(rep.measured)
    ok = rep.passed
    announce(
        1, "dual-oracle equivalence", ok,
        f"max gap beyond lattice resolution {vals['excess_over_resolution']:.2e} <= 1e-6; "
        f"{rep.runtime_seconds:.1f}s",
    )
    assert rep.parameters == {"trials": 200, "seed": 0, "grid_steps": 8}
    assert ok
    assert rep.runtime_seconds <= 60


def test_criterion_02_contraction_and_monotonicity(reports):
    rep = reports["operator_properties"]
    vals = dict(rep.measured)
    ok = vals["contraction"] <= 1e-9 and vals["monotonicity"] <= 1e-9
    announce(
        2, "contraction & monotonicity", ok,
        f"worst contraction excess {vals['contraction']:.2e}, "
        f"worst monotonicity excess {vals['monotonicity']:.2e} (100 pairs, t in 0.05/0.1/0.5; "
        f"suite {rep.runtime_seconds:.0f}s shared with criterion 3)",
    )
    assert rep.parameters == {"trials": 100, "seed": 0, "t_list": [0.05, 0.1, 0.5], "m": 0.5}
    assert ok
    assert rep.runtime_seconds <= 180


def test_criterion_03_lipschitz_propagation(reports):
    rep = reports["operator_properties"]
    vals = dict(rep.measured)
    ok = vals["lipschitz_excess"] <= 1e-12
    announce(
        3, "Lipschitz propagation", ok,
        f"worst excess over Lip(f) + 10 h Lip(f): {vals['lipschitz_excess']:.2e}",
    )
    assert rep.parameters == {"trials": 100, "seed": 0, "t_list": [0.05, 0.1, 0.5], "m": 0.5}
    assert ok


def test_criterion_04_refinement_monotonicity(reports):
    # stated configuration: the first six comparisons hold at the default
    # grid; comparison n=6 (levels 6 -> 7) needs the doubled grid: at 513
    # nodes the per-stage resampling bias (~h^2/dt) overtakes the shrinking
    # true margin
    rep_default, rep_fine = reports["refinement_monotonicity"]
    seconds = rep_default.runtime_seconds + rep_fine.runtime_seconds
    ok = rep_default.passed and rep_fine.passed
    announce(
        4, "refinement monotonicity", ok,
        f"max increase: levels 0..6 at n=513 {dict(rep_default.measured)['max_refinement_increase']:.2e}, "
        f"levels 0..7 at n=1025 {dict(rep_fine.measured)['max_refinement_increase']:.2e} <= 1e-8; "
        f"{seconds:.0f}s",
    )
    assert rep_default.parameters == {"t": 1.0, "levels": 6, "m": 0.5}
    assert rep_fine.parameters == {"t": 1.0, "levels": 7, "m": 0.5}
    assert ok
    assert seconds <= 180


def test_criterion_05_sensitivity_limit(reports):
    rep = reports["sensitivity_limit"]
    vals = dict(rep.measured)
    decreasing = vals["max_increase_ratio"] <= 0.10
    final_ok = vals["final_error"] <= rep.thresholds["final_error"]
    announce(
        5, "sensitivity limit", decreasing and final_ok,
        f"E nonincreasing: {decreasing}; E(0.025) = {vals['final_error']:.4f} vs gate "
        f"{rep.thresholds['final_error']:.4f}; analytic floor sqrt((1-e^-0.05)/2) = "
        f"{math.sqrt(0.5 * (1 - math.exp(-0.05))):.4f}; {rep.runtime_seconds:.0f}s",
    )
    assert rep.parameters == {
        "t_list": [0.2, 0.1, 0.05, 0.025], "m": 1.0, "p": 2.0, "function": "given",
    }
    assert decreasing
    # companion: the quotient matches the closed-form finite-t value to O(t),
    # so the gap to m||grad f|| below is the true value of E(t), not noise
    cfg = base_cfg(1.0)
    f = named_field(GRID, "sin")
    x = GRID.axes[0]
    mask = WINDOW.mask(GRID)
    t = 0.025
    quotient = (dro_step(cfg, t, f).values - dro_step(replace(cfg, m=0.0), t, f).values) / t
    theory = np.sqrt(0.5 * (1.0 + math.exp(-2 * t) * np.cos(2 * x)))
    assert np.max(np.abs(quotient - theory)[mask]) <= 1.2 * t
    assert final_ok, (
        f"E(0.025) = {vals['final_error']:.4f} > 0.05: the exact sensitivity at this t "
        f"is m sqrt((1 + e^-2t cos 2x)/2), whose distance to m|cos x| at x = pi/2 is "
        f"{math.sqrt(0.5 * (1 - math.exp(-0.05))):.4f}; the stated gate sits below the "
        f"analytically attainable value"
    )


def test_criterion_06_generator_identity(reports):
    rep = reports["generator_identity"]
    vals = dict(rep.measured)
    gate = rep.thresholds["final_error"]
    final_ok = vals["final_error"] <= gate
    decreasing = vals["max_increase_ratio"] <= 0.10
    announce(
        6, "generator identity", final_ok and decreasing,
        f"window error of (S(t)f - f)/t at t=0.05: {vals['final_error']:.4f} <= gate "
        f"{gate:.4f}; {rep.runtime_seconds:.0f}s",
    )
    assert rep.parameters == {"t_list": [0.2, 0.1, 0.05], "m": 0.5, "stop_tol": 2e-5}
    assert decreasing
    assert final_ok


def test_criterion_07_semigroup_property(reports):
    rep = reports["semigroup_property"]
    gap = dict(rep.measured)["gap_s=0.25_t=0.25"]
    announce(
        7, "semigroup property", rep.passed,
        f"sup|S(0.5)f - S(0.25)S(0.25)f| = {gap:.2e} <= 5e-3 + 1e-3; "
        f"{rep.runtime_seconds:.0f}s",
    )
    assert rep.parameters == {"pairs": [(0.25, 0.25)], "stop_tol": 1e-3, "m": 0.5}
    assert rep.passed
    assert rep.runtime_seconds <= 600


def test_criterion_08_heat_anchor(reports):
    rep = reports["heat_anchor"]
    vals = dict(rep.measured)
    announce(
        8, "heat anchor (m=0)", rep.passed,
        f"limit vs e^-0.25 cos: {vals['limit_vs_reference']:.2e}, "
        f"pde vs e^-0.25 cos: {vals['pde_vs_reference']:.2e} <= 5e-3",
    )
    assert anchor_parameters(rep) == {"horizon": 0.5, "m": 0.0, "stop_tol": 1e-4}
    assert rep.passed


def test_criterion_09_monotone_data_closed_form(reports):
    rep = reports["cdf_anchor"]
    vals = dict(rep.measured)
    announce(
        9, "monotone-data closed form", rep.passed,
        f"limit vs Phi((x+1/2)/sqrt 2): {vals['limit_vs_reference']:.2e}, "
        f"pde: {vals['pde_vs_reference']:.2e} <= 1e-2",
    )
    assert anchor_parameters(rep) == {"horizon": 1.0, "m": 0.5, "stop_tol": 1e-3}
    assert rep.passed
    # spot value at the origin, cf. Phi(0.5/sqrt 2) ~ 0.6382
    lim = rep.artifacts["limit"].field
    i0 = int(np.argmin(np.abs(GRID.axes[0])))
    assert lim.values[i0] == pytest.approx(0.6381631950841185, abs=1e-2)


def test_criterion_10_game_crosscheck(reports):
    rep = reports["game_crosscheck"]
    vals = dict(rep.measured)
    ok = rep.passed
    announce(
        10, "two-action game cross-check", ok,
        f"operator-pde gap {vals['operator_pde_gap']:.2e} <= 2e-2, "
        f"dominance violation {vals['dominance_violation']:.2e} <= 1e-8",
    )
    assert anchor_parameters(rep) == {"horizon": 0.5, "m": 0.25, "stop_tol": 1e-3}
    assert ok


def test_criterion_11_refinement_certificates(reports):
    rep = reports["refinement_certificates"]
    vals = dict(rep.measured)
    announce(
        11, "refinement certificates", rep.passed,
        f"headline changes under doubled resolution: heat {vals['change_heat_anchor']:.2e} "
        f"(<= 2.5e-3), cdf {vals['change_cdf_anchor']:.2e} (<= 5e-3), game "
        f"{vals['change_game_crosscheck']:.2e} (<= 1e-2); {rep.runtime_seconds:.0f}s",
    )
    assert rep.parameters == {
        "experiments": ["heat_anchor", "cdf_anchor", "game_crosscheck"], "factor": 0.5,
    }
    assert rep.passed
    assert rep.runtime_seconds <= 1800
