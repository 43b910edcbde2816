"""Acceptance suite: one test per criterion, one printed line per criterion.

Shared configuration: 1-d grid with 513 nodes on [-8, 8], window [-4, 4],
quadrature order 16, Wasserstein order p = 2.  Heavy artifacts (anchor runs)
are computed once in module-scope fixtures and reused by the certificate
criterion.

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
import time
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
from drolimit.validation import (
    anchor_check,
    check_dual_oracle,
    check_generator,
    check_operator_properties,
    check_refinement_monotonicity,
    check_semigroup,
    check_sensitivity,
    game_crosscheck,
    named_field,
    refinement_certificates,
)

GRID = Grid(-8.0, 8.0, 513)
WINDOW = CompactWindow((-4.0,), (4.0,))


def base_cfg(m: float, drifts=((0.0,),), grid: Grid = GRID) -> OperatorConfig:
    return OperatorConfig(
        model=brownian_model([list(b) for b in drifts], [[1.0]], dim=grid.dim),
        m=m, p=2.0,
        grid=grid,
    )


def announce(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def property_report():
    return check_operator_properties(base_cfg(0.5), trials=100, seed=0, t_list=(0.05, 0.1, 0.5))


@pytest.fixture(scope="module")
def heat_report():
    return anchor_check(base_cfg(0.5), WINDOW, "heat_anchor")


@pytest.fixture(scope="module")
def cdf_report():
    return anchor_check(base_cfg(0.5), WINDOW, "cdf_anchor")


@pytest.fixture(scope="module")
def game_report():
    return game_crosscheck(base_cfg(0.5), WINDOW)


def test_criterion_01_dual_oracle_equivalence():
    t0 = time.perf_counter()
    rep = check_dual_oracle(trials=200, seed=0)
    vals = dict(rep.measured)
    ok = rep.passed
    announce(
        1, "dual-oracle equivalence", ok,
        f"max gap beyond lattice resolution {vals['excess_over_resolution']:.2e} <= 1e-6; "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert ok
    assert time.perf_counter() - t0 <= 60


def test_criterion_02_contraction_and_monotonicity(property_report):
    vals = dict(property_report.measured)
    ok = vals["contraction"] <= 1e-9 and vals["monotonicity"] <= 1e-9
    announce(
        2, "contraction & monotonicity", ok,
        f"worst contraction excess {vals['contraction']:.2e}, "
        f"worst monotonicity excess {vals['monotonicity']:.2e} (100 pairs, t in 0.05/0.1/0.5; "
        f"suite {property_report.runtime_seconds:.0f}s shared with criterion 3)",
    )
    assert ok
    assert property_report.runtime_seconds <= 180


def test_criterion_03_lipschitz_propagation(property_report):
    vals = dict(property_report.measured)
    ok = vals["lipschitz_excess"] <= 1e-12
    announce(
        3, "Lipschitz propagation", ok,
        f"worst excess over Lip(f) + 10 h Lip(f): {vals['lipschitz_excess']:.2e}",
    )
    assert ok


def test_criterion_04_refinement_monotonicity():
    t0 = time.perf_counter()
    # stated configuration: the first six comparisons hold at the default grid
    rep_default = check_refinement_monotonicity(
        base_cfg(0.5), named_field(GRID, "tanh"), t=1.0, levels=6, window=WINDOW
    )
    # comparison n=6 (levels 6 -> 7) needs the doubled grid: at 513 nodes the
    # per-stage resampling bias (~h^2/dt) overtakes the shrinking true margin
    fine_grid = Grid(-8.0, 8.0, 1025)
    rep_fine = check_refinement_monotonicity(
        base_cfg(0.5, grid=fine_grid), named_field(fine_grid, "tanh"),
        t=1.0, levels=7, window=WINDOW,
    )
    ok = rep_default.passed and rep_fine.passed
    announce(
        4, "refinement monotonicity", ok,
        f"max increase: levels 0..6 at n=513 {dict(rep_default.measured)['max_refinement_increase']:.2e}, "
        f"levels 0..7 at n=1025 {dict(rep_fine.measured)['max_refinement_increase']:.2e} <= 1e-8; "
        f"{time.perf_counter() - t0:.0f}s",
    )
    assert ok
    assert time.perf_counter() - t0 <= 180


def test_criterion_05_sensitivity_limit():
    t0 = time.perf_counter()
    cfg = base_cfg(1.0)
    f = named_field(GRID, "sin")
    rep = check_sensitivity(cfg, f, t_list=(0.2, 0.1, 0.05, 0.025), window=WINDOW)
    vals = dict(rep.measured)
    decreasing = vals["max_increase_ratio"] <= 0.10
    final_ok = vals["final_error"] <= rep.thresholds["final_error"]
    announce(
        5, "sensitivity limit", decreasing and final_ok,
        f"E nonincreasing: {decreasing}; E(0.025) = {vals['final_error']:.4f} vs gate "
        f"{rep.thresholds['final_error']:.4f}; analytic floor sqrt((1-e^-0.05)/2) = "
        f"{math.sqrt(0.5 * (1 - math.exp(-0.05))):.4f}; {time.perf_counter() - t0:.0f}s",
    )
    assert decreasing
    # companion: the quotient matches the closed-form finite-t value to O(t),
    # so the gap to m||grad f|| below is the true value of E(t), not noise
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


def test_criterion_06_generator_identity():
    t0 = time.perf_counter()
    cfg = base_cfg(0.5)
    f = named_field(GRID, "cos")
    rep = check_generator(cfg, f, t_list=(0.2, 0.1, 0.05), window=WINDOW)
    vals = dict(rep.measured)
    gate = rep.thresholds["final_error"]
    final_ok = vals["final_error"] <= gate
    decreasing = vals["max_increase_ratio"] <= 0.10
    announce(
        6, "generator identity", final_ok and decreasing,
        f"window error of (S(t)f - f)/t at t=0.05: {vals['final_error']:.4f} <= gate "
        f"{gate:.4f}; {time.perf_counter() - t0:.0f}s",
    )
    assert decreasing
    assert final_ok


def test_criterion_07_semigroup_property():
    t0 = time.perf_counter()
    cfg = base_cfg(0.5)
    f = named_field(GRID, "tanh")
    rep = check_semigroup(
        cfg, f, pairs=((0.25, 0.25),), window=WINDOW, stop_tol=1e-3, max_level=8,
    )
    gap = dict(rep.measured)["gap_s=0.25_t=0.25"]
    announce(
        7, "semigroup property", rep.passed,
        f"sup|S(0.5)f - S(0.25)S(0.25)f| = {gap:.2e} <= 5e-3 + 1e-3; "
        f"{time.perf_counter() - t0:.0f}s",
    )
    assert rep.passed
    assert time.perf_counter() - t0 <= 600


def test_criterion_08_heat_anchor(heat_report):
    vals = dict(heat_report.measured)
    announce(
        8, "heat anchor (m=0)", heat_report.passed,
        f"limit vs e^-0.25 cos: {vals['limit_vs_reference']:.2e}, "
        f"pde vs e^-0.25 cos: {vals['pde_vs_reference']:.2e} <= 5e-3",
    )
    assert heat_report.passed


def test_criterion_09_monotone_data_closed_form(cdf_report):
    vals = dict(cdf_report.measured)
    announce(
        9, "monotone-data closed form", cdf_report.passed,
        f"limit vs Phi((x+1/2)/sqrt 2): {vals['limit_vs_reference']:.2e}, "
        f"pde: {vals['pde_vs_reference']:.2e} <= 1e-2",
    )
    assert cdf_report.passed
    # spot value at the origin, cf. Phi(0.5/sqrt 2) ~ 0.6382
    lim = cdf_report.artifacts["limit"].field
    i0 = int(np.argmin(np.abs(GRID.axes[0])))
    assert lim.values[i0] == pytest.approx(0.6381631950841185, abs=1e-2)


def test_criterion_10_game_crosscheck(game_report):
    vals = dict(game_report.measured)
    ok = game_report.passed
    announce(
        10, "two-action game cross-check", ok,
        f"operator-pde gap {vals['operator_pde_gap']:.2e} <= 2e-2, "
        f"dominance violation {vals['dominance_violation']:.2e} <= 1e-8",
    )
    assert ok


def test_criterion_11_refinement_certificates(heat_report, cdf_report, game_report):
    t0 = time.perf_counter()
    rep = refinement_certificates(
        base_cfg(0.5), WINDOW,
        experiments=("heat_anchor", "cdf_anchor", "game_crosscheck"),
        base_reports={
            "heat_anchor": heat_report,
            "cdf_anchor": cdf_report,
            "game_crosscheck": game_report,
        },
    )
    vals = dict(rep.measured)
    announce(
        11, "refinement certificates", rep.passed,
        f"headline changes under doubled resolution: heat {vals['change_heat_anchor']:.2e} "
        f"(<= 2.5e-3), cdf {vals['change_cdf_anchor']:.2e} (<= 5e-3), game "
        f"{vals['change_game_crosscheck']:.2e} (<= 1e-2); {time.perf_counter() - t0:.0f}s",
    )
    assert rep.passed
    assert time.perf_counter() - t0 <= 1800
