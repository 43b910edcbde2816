import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from drolimit import (
    Action,
    DiscreteMeasure,
    DualInstance,
    InputError,
    brute_force_sup,
    brownian_model,
    law,
    wasserstein_sup,
)
from drolimit import dual, operators
from drolimit.dual import (
    _best_candidates,
    _simplex_lattice,
    _tableau,
    _window_minimizer,
    oracle_resolution,
    solve_batch,
    solve_window,
)
from drolimit.fields import Grid, ScalarField
from drolimit.operators import OperatorConfig, _radius_offsets, _StepKernel
from drolimit.validation import _random_instance


def delta_instance(integrand, radius, candidates, p=2.0):
    src = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    return DualInstance(src, [np.asarray(candidates, float).reshape(-1, 1)], integrand, radius, p)


def linear(z):
    return np.asarray(z)[:, 0]


def neg_abs(z):
    return -np.abs(np.asarray(z)[:, 0])


def test_ambiguity_spec():
    # the operator config holds the ambiguity: m >= 0 and p in (1, inf)
    model, grid = brownian_model([[0.0]], [[1.0]]), Grid(-8.0, 8.0, 17)
    assert OperatorConfig(model, 0.5, grid, 3.0).p == 3.0
    with pytest.raises(InputError, match="uncertainty rate m must be >= 0, got -1.0"):
        OperatorConfig(model, -1.0, grid)
    with pytest.raises(InputError, match=r"Wasserstein order p must be in \(1, inf\), got 1.0"):
        OperatorConfig(model, 0.0, grid, p=1.0)


def test_stay_option_required():
    src = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    with pytest.raises(InputError):
        DualInstance(src, [np.array([[1.0], [2.0]])], linear, 1.0)


def test_dual_instance_and_oracle_refusals():
    # a bad radius, order or candidate count, or an integrand that does not
    # give one finite value per candidate, is refused while the instance is
    # built; the oracle refuses no lattice steps and a plan product past 5e6
    src = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    stay = [np.array([[0.0], [1.0]])]
    for radius, p, sets, message in (
        (-0.1, 2.0, stay, "radius must be nonnegative"),
        (0.1, 1.0, stay, r"order p must be > 1"),
        (0.1, 2.0, stay * 2, "need one candidate set per source atom"),
    ):
        with pytest.raises(InputError, match=message):
            DualInstance(src, sets, linear, radius, p)
    for integrand, message in (
        (lambda z: np.zeros(3), "integrand returned wrong number of values"),
        (lambda z: np.full(len(z), np.nan), "integrand returned non-finite values"),
    ):
        with pytest.raises(InputError, match=message):
            DualInstance(src, stay, integrand, 0.1)
    with pytest.raises(InputError, match="grid_steps must be >= 1"):
        brute_force_sup(DualInstance(src, stay, linear, 0.1), grid_steps=0)
    # two atoms of 12 candidates: 75,582 plans each at 8 steps
    src2 = DiscreteMeasure(np.zeros((2, 1)), np.full(2, 0.5))
    twelve = np.linspace(0.0, 1.1, 12).reshape(-1, 1)
    with pytest.raises(InputError, match="instance too large for the enumeration oracle$"):
        brute_force_sup(DualInstance(src2, [twelve, twelve], linear, 0.1), 8)


def test_candidate_sets_must_be_k_by_d():
    # a flat set or a (d, k) array is refused, not reshaped or transposed
    src1 = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    src2 = DiscreteMeasure(np.zeros((2, 2)), np.full(2, 0.5))
    ok = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    for src, sets in (
        (src1, [np.array([0.0, 1.0])]),
        (src1, [np.zeros((1, 1, 1))]),
        (src2, [ok, ok.T]),
        (src2, [ok, ok[:, :1]]),
    ):
        with pytest.raises(InputError, match=f"candidate set {len(sets) - 1} must be"):
            DualInstance(src, sets, lambda z: np.asarray(z)[:, 0], 0.1)
    inst = DualInstance(src2, [ok, ok], lambda z: np.asarray(z)[:, 0], 0.1)
    assert [g.tolist() for g in inst.values] == [[0.0, 0.5, 0.0]] * 2
    assert [c.tolist() for c in inst.costs] == [[0.0, 0.25, 0.25]] * 2


def test_free_candidate_counts_at_radius_zero():
    # the cost of moving 1e-200 underflows to 0, so the second candidate is
    # free: every radius, 0 included, and the oracle reach its value 1
    src = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    step = lambda z: (np.asarray(z)[:, 0] > 0).astype(float)
    cands = [np.array([[0.0], [1e-200]])]
    for r in (0.0, 1e-300, 0.5):
        inst = DualInstance(src, cands, step, r)
        assert wasserstein_sup(inst) == 1.0
        assert brute_force_sup(inst, 4) == 1.0
        assert inst.costs[0].tolist() == [0.0, 0.0]


def test_tableau_keeps_each_atoms_largest_value_per_cost():
    values = [np.array([0.5, 2.0, 1.0, 3.0, 0.7]), np.array([1.0, -1.0])]
    costs = [np.array([0.0, 0.25, 0.25, 1.0, 0.0]), np.array([0.0, 0.5])]
    levels, table = _tableau(values, costs)
    assert levels.tolist() == [0.0, 0.25, 0.5, 1.0]
    # atom 0 has nothing at cost 0.5, atom 1 nothing at 0.25 or 1: each such
    # entry is the atom's best free value
    assert table.tolist() == [[0.7, 2.0, 0.7, 3.0], [1.0, 1.0, -1.0, 1.0]]


def test_solve_batch_takes_one_cost_row_with_one_free_column():
    g = np.ones((4, 3, 2))
    w = np.full(3, 1 / 3)
    for costs in (
        np.array([0.0, 0.0, 0.25, 1.0]),       # a second free column
        np.array([0.1, 0.2, 0.25, 1.0]),       # no free stay option
        np.array([0.0, 0.2, np.nan, 1.0]),
        np.tile([0.0, 0.2, 0.25, 1.0], (3, 1)),  # per-atom rows
        np.array([0.0, 0.25, 0.2, 1.0]),       # not ascending
    ):
        for r in (0.0, 0.3):
            with pytest.raises(InputError):
                solve_batch(g, costs, w, r, 2.0)


def test_solve_window_refuses_a_row_that_is_not_ascending():
    # the window and its breakpoints read the runs in cost order: a permuted
    # row is refused, not solved to a wrong value; a row with equal costs is
    # solved to ``solve_batch``'s values, since the certificate reads the
    # index of the run each max pays, not its cost
    rng = np.random.default_rng(41)
    g = rng.standard_normal((7, 3, 50))
    w = np.full(3, 1 / 3)
    costs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 2.0, 6))])
    guess = np.full(50, 0.5)
    tied = np.concatenate([[0.0], np.repeat(costs[1:4], 2)])
    for row in (costs[[0, 2, 1, 3, 4, 5, 6]], costs[[0, 6, 5, 4, 3, 2, 1]]):
        with pytest.raises(InputError, match="ascending"):
            solve_window(g, row, w, 0.4, 2.0, guess, None)
    assert np.allclose(
        solve_window(g, tied, w, 0.4, 2.0, guess, None)[0],
        solve_batch(g, tied, w, 0.4, 2.0)[0], rtol=0.0, atol=1e-14,
    )
    merged = np.concatenate([g[:1], np.maximum(g[1::2], g[2::2])])
    assert np.array_equal(solve_batch(g, tied, w, 0.4, 2.0)[0], solve_batch(merged, tied[::2], w, 0.4, 2.0)[0])
    assert np.allclose(
        solve_window(g, costs, w, 0.4, 2.0, guess, None)[0],
        solve_batch(g, costs, w, 0.4, 2.0)[0], rtol=0.0, atol=1e-14,
    )


def test_simplex_lattice_is_the_ordered_product_filter():
    for k in range(1, 6):
        for steps in range(1, 7):
            rows = [v for v in itertools.product(range(steps + 1), repeat=k) if sum(v) == steps]
            expected = np.array(rows, dtype=float) / steps
            got = _simplex_lattice(k, steps)
            assert got.shape == expected.shape and np.array_equal(got, expected)


def test_simplex_lattice_is_the_stars_and_bars_rule():
    # the gaps between k - 1 bars placed among steps + k - 1 slots, the bar
    # positions in itertools' lexicographic order: the same rows, bit for bit
    for k in range(1, 10):
        for steps in range(1, 9):
            bars = np.array(list(itertools.combinations(range(steps + k - 1), k - 1)), dtype=float)
            expected = (np.diff(bars, axis=1, prepend=-1.0, append=steps + k - 1.0) - 1.0) / steps
            got = _simplex_lattice(k, steps)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (k, steps)


def unpruned_brute_force_sup(inst, grid_steps):
    """``brute_force_sup`` filtering its plans by the budget only once, after
    the last outer sum."""
    w = inst.source.weights
    plans = [_simplex_lattice(len(g), grid_steps) for g in inst.values]
    vals = [wi * x @ g for wi, x, g in zip(w, plans, inst.values)]
    costs = [wi * x @ c for wi, x, c in zip(w, plans, inst.costs)]
    val, cost = vals[0], costs[0]
    for v, c in zip(vals[1:], costs[1:]):
        val, cost = np.add.outer(val, v).ravel(), np.add.outer(cost, c).ravel()
    return float(val[cost <= inst.radius ** inst.p * (1.0 + 1e-12) + 1e-15].max())


def test_pruned_brute_force_keeps_its_bits():
    # the draws of the acceptance battery's dual check
    rng = np.random.default_rng(0)
    for trial in range(200):
        inst = _random_instance(rng, radius=[0.0, 0.1, 0.5, 2.0][trial % 4])
        assert brute_force_sup(inst, 8) == unpruned_brute_force_sup(inst, 8), trial


def test_radius_zero_is_plain_expectation():
    m = brownian_model([[0.0]], [[1.0]])
    mu = law(m.actions[0], 1.0, quad_order=32)
    inst = DualInstance(
        mu, [mu.atoms[i : i + 1] for i in range(mu.atoms.shape[0])],
        lambda z: np.cos(np.asarray(z)[:, 0]), radius=0.0,
    )
    assert wasserstein_sup(inst) == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_linear_integrand_attains_kantorovich_bound():
    cands = np.linspace(-2, 2, 401)
    inst = delta_instance(linear, radius=0.3, candidates=cands)
    assert wasserstein_sup(inst) == pytest.approx(0.3, abs=0.011)


def test_two_atom_instance_matches_oracle():
    src = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    cands = [np.array([[-1.5], [-1.0], [-0.5], [0.0], [0.5], [1.0], [1.5]])] * 2
    inst = DualInstance(src, cands, neg_abs, radius=0.5, p=2.0)
    sol = wasserstein_sup(inst)
    oracle = brute_force_sup(inst, grid_steps=6)
    assert abs(sol - oracle) <= 1e-6
    assert sol == pytest.approx(-0.5, abs=1e-9)


def test_wasserstein_inf():
    # the inner inf (best case) is minus the sup of the negated integrand
    def inf(integrand, radius, candidates):
        flipped = lambda z: -np.asarray(integrand(z))
        return -wasserstein_sup(delta_instance(flipped, radius, candidates))

    cands = np.linspace(-2, 2, 401)
    assert inf(linear, 0.0, [0.0]) == pytest.approx(0.0)
    assert inf(linear, 0.3, cands) == pytest.approx(-0.3, abs=0.011)
    # concave peak -|z| at a point mass: all mass moves distance r, value -r
    r = 0.4
    assert inf(neg_abs, r, cands) == pytest.approx(-r, abs=0.011)


def test_brute_force_limits():
    src = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.3, 0.7]))
    cands = [np.array([[0.0], [1.0]]), np.array([[2.0], [0.5]])]
    inst = DualInstance(src, cands, linear, radius=100.0)
    # radius beyond diameter: per-atom max
    assert brute_force_sup(inst, 4) == pytest.approx(0.3 * 1.0 + 0.7 * 2.0)
    inst0 = DualInstance(src, cands, linear, radius=0.0)
    assert brute_force_sup(inst0, 4) == pytest.approx(0.3 * 0.0 + 0.7 * 2.0)


def test_brute_force_refuses_large():
    src = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    cands = [np.linspace(-1, 1, 14).reshape(-1, 1)]
    with pytest.raises(InputError):
        brute_force_sup(DualInstance(src, cands, linear, 1.0), 8)


def _random_small_instance(rng, radius, p=2.0):
    natoms = int(rng.integers(1, 4))
    atoms = rng.uniform(-2, 2, size=(natoms, 1))
    w = rng.random(natoms) + 0.2
    w /= w.sum()
    cands = []
    for i in range(natoms):
        extra = rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 4)), 1))
        cands.append(np.vstack([atoms[i : i + 1], atoms[i : i + 1] + extra]))
    coeffs = rng.standard_normal(3) * 0.5

    def integrand(z, c=coeffs):
        z = np.asarray(z)[:, 0]
        return c[0] * np.sin(z) + c[1] * np.cos(2 * z) + c[2] * z / 4.0

    return DualInstance(DiscreteMeasure(atoms, w), cands, integrand, radius, p)


def test_duality_sandwich_random():
    rng = np.random.default_rng(11)
    for trial in range(60):
        r = [0.0, 0.1, 0.5, 2.0][trial % 4]
        inst = _random_small_instance(rng, r)
        dual = wasserstein_sup(inst)
        oracle = brute_force_sup(inst, grid_steps=8)
        res = oracle_resolution(inst, 8)
        assert oracle <= dual + 1e-9          # weak duality
        assert dual <= oracle + res + 1e-6    # strong duality up to lattice resolution


def test_other_orders_match_oracle():
    rng = np.random.default_rng(12)
    for p in (1.5, 3.0):
        for _ in range(10):
            inst = _random_small_instance(rng, radius=0.4, p=p)
            dual = wasserstein_sup(inst)
            oracle = brute_force_sup(inst, grid_steps=10)
            assert oracle <= dual + 1e-9
            assert dual <= oracle + oracle_resolution(inst, 10) + 1e-6


def test_radius_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        inst_small = _random_small_instance(rng, radius=0.2)
        inst_large = DualInstance(
            inst_small.source, inst_small.candidates, inst_small.integrand, 0.6, inst_small.p
        )
        v_small = wasserstein_sup(inst_small)
        v_large = wasserstein_sup(inst_large)
        assert v_small <= v_large + 1e-10


def test_a_priori_lipschitz_bound():
    # value(r) - value(0) <= Lip(integrand) * r
    rng = np.random.default_rng(14)
    for _ in range(20):
        inst = _random_small_instance(rng, radius=0.5)
        lip = 0.5 * (1 + 2 + 0.25) * 3  # coarse bound on the Fourier integrand family
        v_r = wasserstein_sup(inst)
        v_0 = wasserstein_sup(
            DualInstance(inst.source, inst.candidates, inst.integrand, 0.0, inst.p)
        )
        assert v_r - v_0 <= lip * 0.5 + 1e-9


def test_translation_covariance_exact():
    rng = np.random.default_rng(15)
    inst = _random_small_instance(rng, radius=0.3)
    shifted = DualInstance(
        inst.source, inst.candidates,
        lambda z: np.asarray(inst.integrand(z)) + 5.0, inst.radius, inst.p,
    )
    v = wasserstein_sup(inst)
    vs = wasserstein_sup(shifted)
    assert vs == pytest.approx(v + 5.0, abs=1e-9)


def lp_value(inst):
    """The primal transport LP of an instance; see ``lp_rows``."""
    values, costs = [], []
    for i, z in enumerate(inst.candidates):
        values.append(np.asarray(inst.integrand(z), float).ravel())
        costs.append(np.linalg.norm(z - inst.source.atoms[i], axis=1) ** inst.p)
    return lp_rows(values, costs, inst.source.weights, inst.radius ** inst.p)


def lp_rows(values, costs, w, budget):
    """The primal transport LP with one row of candidate values and costs per
    atom, solved by scipy's HiGHS: an oracle that shares no code with the dual
    solver."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    obj, cost_row, eq_rows = [], [], []
    for i, (g, c) in enumerate(zip(values, costs)):
        for j in range(len(g)):
            obj.append(-w[i] * g[j])
            cost_row.append(w[i] * c[j])
            eq_rows.append(i)
    a_eq = np.zeros((len(values), len(obj)))
    for col, row in enumerate(eq_rows):
        a_eq[row, col] = 1.0
    res = linprog(
        np.array(obj), A_ub=np.array([cost_row]), b_ub=[budget],
        A_eq=a_eq, b_eq=np.ones(len(values)), bounds=(0, None), method="highs",
    )
    assert res.status == 0
    return -res.fun


def exact_lp(values, costs, w, budget):
    """The primal transport LP in exact rational arithmetic, for rows of
    candidate values and costs per atom: each atom's (cost, value) points
    reduce to their upper concave hull from the best free point, and the
    hull's segments are bought in order of gain per unit cost until the
    budget runs out (a fractional knapsack).  It shares no code and no
    rounding with the dual solver."""
    total, segments = Fraction(0), []
    for wi, g, c in zip(map(Fraction, w), values, costs):
        hull = []
        for pt in sorted(zip(map(Fraction, c), map(Fraction, g))):
            if hull and hull[-1][0] == pt[0]:
                hull.pop()  # of equal costs the larger value sorts last
            while len(hull) >= 2 and (
                (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
                <= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
            ):
                hull.pop()
            hull.append(pt)
        total += wi * hull[0][1]
        for (c0, g0), (c1, g1) in zip(hull, hull[1:]):
            if g1 > g0:
                segments.append(((g1 - g0) / (c1 - c0), wi * (c1 - c0), wi * (g1 - g0)))
    left = Fraction(budget)
    for _, cost, gain in sorted(segments, key=lambda s: s[0], reverse=True):
        if cost >= left:
            return float(total + gain * left / cost)
        total, left = total + gain, left - cost
    return float(total)


def test_batch_matches_scalar_path():
    # shared offsets: every row of the operator-facing batch (shared costs)
    # equals the LP value and the scalar path (per-atom costs, batch of one)
    rng = np.random.default_rng(16)
    atoms = rng.standard_normal((6, 1)) * 0.4
    w = rng.random(6)
    w /= w.sum()
    offsets = np.array([0.0, -0.1, 0.1, -0.2, 0.2, -0.4, 0.4])
    order = np.argsort(np.abs(offsets), kind="stable")
    offsets = offsets[order]
    costs = np.abs(offsets) ** 2
    shifts = np.linspace(-1, 1, 11)

    def integrand_at(shift):
        def fn(z):
            z = np.asarray(z)[:, 0]
            return np.sin(z + shift) + 0.3 * np.cos(2 * (z + shift))
        return fn

    gvals = np.empty((len(offsets), 6, len(shifts)))
    for k, s in enumerate(shifts):
        fn = integrand_at(s)
        for i in range(6):
            gvals[:, i, k] = fn((atoms[i, 0] + offsets).reshape(-1, 1))
    batch, _ = solve_batch(gvals, costs, w, 0.25, 2.0)
    for k, s in enumerate(shifts):
        cands = [(atoms[i, 0] + offsets).reshape(-1, 1) for i in range(6)]
        inst = DualInstance(DiscreteMeasure(atoms, w), cands, integrand_at(s), 0.25, 2.0)
        assert batch[k] == pytest.approx(lp_value(inst), abs=1e-8)
        # HiGHS resolves the LP only to about 1e-8; the exact LP to rounding
        assert batch[k] == pytest.approx(exact_lp(gvals[:, :, k].T, [costs] * 6, w, 0.25 ** 2), abs=1e-12)
        assert batch[k] == pytest.approx(wasserstein_sup(inst), abs=1e-9)


def test_against_linear_program():
    # independent LP oracle on a mid-size instance
    rng = np.random.default_rng(17)
    inst = _random_small_instance(rng, radius=0.45)
    assert wasserstein_sup(inst) == pytest.approx(lp_value(inst), abs=1e-8)
    # HiGHS resolves the LP only to about 1e-8; the exact LP to rounding
    exact = exact_lp(inst.values, inst.costs, inst.source.weights, inst.radius ** inst.p)
    assert wasserstein_sup(inst) == pytest.approx(exact, abs=1e-12)


def test_second_zero_cost_column_matches_linear_program():
    # costs rounded to 0.1 give some rows a second free column whose value
    # beats column 0; the stay line must take the best free value per atom
    for seed in range(200):
        rng = np.random.default_rng(seed)
        gvals = rng.standard_normal((1, 3, 5))
        w = rng.random(3)
        w /= w.sum()
        costs = np.round(rng.uniform(0.0, 0.6, (3, 5)), 1)
        costs[:, 0] = 0.0
        levels, table = _tableau(gvals[0], costs)
        value = solve_batch(table.T[:, :, None], levels, w, 0.1, 2.0)[0][0]
        assert value == pytest.approx(lp_rows(gvals[0], costs, w, 0.1 ** 2), abs=1e-12), seed


def test_closed_form_single_atom():
    # one atom moving to 0.7 at cost 0.49 under the budget 0.16: the optimal
    # plan moves the share 0.16 / 0.49 of the mass, gaining 0.8 on it.  The
    # first crossing of the cold solve is the kink lam* = 0.8 / 0.49 itself,
    # and a window walked from any guess stops there too
    lam_star = 0.8 / 0.49
    args = (np.array([[[0.3]], [[1.1]]]), np.array([0.0, 0.49]), np.ones(1), 0.4, 2.0)
    value, _ = solve_batch(*args)
    assert abs(value[0] - (0.3 + 0.8 * 0.16 / 0.49)) <= 1e-15
    for guess in (0.0, lam_star, 1e-12 * lam_star, 1e12 * lam_star):
        value, _, _ = solve_window(*args, np.array([guess]), None)
        assert abs(value[0] - (0.3 + 0.8 * 0.16 / 0.49)) <= 1e-15


def ulp_level_batch(seed):
    """(C, Q, N) values within 8 ulps of 1 on the costs, weights and radius
    of a default step at t = 2^-6: D is flat up to rounding."""
    t = 2.0 ** -6
    weights = law(Action("a0", drift=[0.0], sigma=[[1.0]]), t, quad_order=16).weights
    radius = 0.5 * t
    _, costs = _radius_offsets(radius, 16, 1, 2.0)
    k = np.random.default_rng(seed).integers(0, 8, (costs.size, 16, 64))
    return 1.0 - k * 2.0 ** -53, costs, weights, radius


def test_ulp_level_batch_terminates():
    # the solve must still stop on the bracket, at the value 1
    for seed in range(20):
        value, _ = solve_batch(*ulp_level_batch(seed), 2.0)
        assert np.all(np.abs(value - 1.0) <= 1e-15)


def test_solve_batch_ignores_memory_layout():
    # the stay column's product with the weights takes BLAS or not by the
    # column's layout; Fortran order gives the C bits
    t = 2.0 ** -4
    weights = law(Action("a0", drift=[0.0], sigma=[[1.0]]), t, quad_order=16).weights
    radius = 0.5 * t
    _, costs = _radius_offsets(radius, 16, 1, 2.0)
    gvals = np.random.default_rng(3).standard_normal((costs.size, 16, 513))
    for r in (radius, 0.0):
        expected = solve_batch(gvals, costs, weights, r, 2.0)
        got = solve_batch(np.asfortranarray(gvals), costs, weights, r, 2.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def tanh_step(t):
    """One default 1-d step on tanh (513 nodes, 16 atoms, 17 distinct costs):
    its kernel and its (D, Q, N) run maxima."""
    grid = Grid(-8.0, 8.0, 513)
    cfg = OperatorConfig(brownian_model([[0.5]], [[1.0]]), 0.5, grid)
    kernel = _StepKernel(cfg, cfg.model.actions[0], t, {})
    return kernel, kernel._run_max(np.tanh(grid.axes[0]))


def test_any_subset_of_nodes_gives_the_full_batch_bits():
    # sums over atoms run in a fixed order and stopped nodes leave the
    # working set, so a node's value does not depend on the rest of its batch
    rng, guesses = np.random.default_rng(19), np.random.default_rng(31)
    cases = []
    for t in (2.0 ** -8, 1.0):
        kernel, run_max = tanh_step(t)
        cases.append((run_max, kernel.costs, kernel.weights, kernel.radius))
    # per-atom costs rounded to 0.1, with ties and second free columns in
    # some rows, put on one shared row by ``_tableau``
    costs = np.round(rng.uniform(0.0, 0.6, (5, 7)), 1)
    costs[:, 0] = 0.0
    w = rng.random(5)
    tables = [_tableau(g, costs) for g in rng.standard_normal((300, 5, 7))]
    levels = tables[0][0]
    cases.append((np.stack([table.T for _, table in tables], axis=2), levels, w / w.sum(), 0.3))
    for gvals, costs, w, radius in cases:
        n = gvals.shape[2]
        full = solve_batch(gvals, costs, w, radius, 2.0)
        lam_star = full[1]
        subsets = [[i] for i in rng.choice(n, 20, replace=False)]
        subsets += [np.sort(rng.choice(n, k, replace=False)) for k in (2, 7, 100, n // 2, n - 1)]
        for rows in subsets:
            part = solve_batch(gvals[:, :, rows], costs, w, radius, 2.0)
            assert np.array_equal(part[0], full[0][rows])
            assert np.array_equal(part[1], full[1][rows])
        # a windowed solve walks, certifies and falls back node by node:
        # from centres found at the guess, and from every element at the
        # last run
        guess = lam_star * guesses.uniform(0.9, 1.1, n)
        for centre in (None, np.full(gvals.shape[1:], len(costs) - 1)):
            full = solve_window(gvals, costs, w, radius, 2.0, guess, centre)
            for rows in subsets:
                part = solve_window(
                    gvals[:, :, rows], costs, w, radius, 2.0, guess[rows],
                    None if centre is None else centre[:, rows],
                )
                assert np.array_equal(part[0], full[0][rows])
                assert np.array_equal(part[1], full[1][rows])
                assert np.array_equal(part[2], full[2][:, rows])


def test_cold_start_keeps_its_bits(monkeypatch):
    # dyadic inputs, so every operation is exact IEEE arithmetic: the values
    # and pass widths of the cold start (cutting planes from lam = 0 and the
    # stay line), pinned before solves took a guess and kept since they take
    # none; D is evaluated at 0 once
    widths = []

    def counted(g, costs, lam):
        widths.append(g.shape[2])
        return _best_candidates(g, costs, lam)

    monkeypatch.setattr(dual, "_best_candidates", counted)
    rng = np.random.default_rng(23)
    gvals = rng.integers(-2 ** 20, 2 ** 20, (9, 5, 6)) / 2.0 ** 20
    costs = np.arange(9) ** 2 / 16.0
    weights = rng.integers(1, 64, 5) / 256.0
    pinned = [
        "0x1.1985940000000p-4", "0x1.3d3596c000000p-2", "0x1.0fdd945555555p-4",
        "0x1.610cec5000000p-3", "0x1.4664f6d99999ap-2", "0x1.6d05b54af8af9p-2",
    ]
    cold = solve_batch(gvals, costs, weights, 0.25, 2.0)
    assert [v.hex() for v in cold[0]] == pinned
    assert widths == [6, 6, 6, 6, 6, 3, 1]
    assert np.all(cold[1] > 0)


def test_warm_start_gives_the_cold_values():
    # a window walked from any guess, from centres found at the guess or
    # from every element at the last run, certifies or falls back to the
    # cold solve: the values stay the cold ones up to rounding
    # (relative to the batch's largest value, as tanh crosses 0),
    # and the exact LP value up to 8 ulps of 1 on a sample of nodes (HiGHS
    # misses it by up to 7e-8 on the tails of tanh, at its default tolerances)
    rng = np.random.default_rng(29)
    cases = []
    for t in (2.0 ** -8, 1.0):
        kernel, run_max = tanh_step(t)
        cases.append((run_max, kernel.costs, kernel.weights, kernel.radius))
    for seed in range(3):
        # merged onto its distinct costs, as a kernel merges its runs: a
        # window takes one run per cost
        gvals, costs, w, radius = ulp_level_batch(seed)
        levels, first = np.unique(costs, return_index=True)
        cases.append((np.maximum.reduceat(gvals, first, axis=0), levels, w, radius))
    for gvals, costs, w, radius in cases:
        n = gvals.shape[2]
        cold, lam_star = solve_batch(gvals, costs, w, radius, 2.0)
        sample = rng.choice(n, 16, replace=False)
        lp = [exact_lp(gvals[:, :, k].T, [costs] * len(w), w, radius ** 2) for k in sample]
        scale = max(lam_star.max(), 1.0)
        guesses = [np.zeros(n), lam_star, 1e-12 * lam_star, 1e12 * lam_star]
        guesses += [rng.uniform(0.0, 2.0, n) * lam_star, rng.uniform(0.0, 2.0, n) * scale]
        for guess in guesses:
            for centre in (None, np.full(gvals.shape[1:], len(costs) - 1)):
                warm, _, _ = solve_window(gvals, costs, w, radius, 2.0, guess, centre)
                assert np.max(np.abs(warm - cold)) <= 1e-14 * np.max(np.abs(cold))
                assert np.all(np.abs(warm[sample] - lp) <= 8 * 2.0 ** -52)


def test_warm_start_refuses_bad_guesses():
    g = np.ones((4, 3, 2))
    costs = np.array([0.0, 0.2, 0.25, 1.0])
    for guess in (None, [1.0, 1.0, 1.0], [1.0, -1.0], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(InputError, match="guess"):
            solve_window(g, costs, np.full(3, 1 / 3), 0.3, 2.0, np.array(guess), None)


def test_warm_start_refuses_bad_centres():
    g = np.ones((4, 3, 2))
    costs = np.array([0.0, 0.2, 0.25, 1.0])
    bad = (np.zeros((3, 3), int), np.zeros(2, int), np.zeros((3, 2)), np.zeros((3, 2), bool), [[0]])
    for centre in bad:
        with pytest.raises(InputError, match=r"the centre must be a \(3, 2\) array of integer runs"):
            solve_window(g, costs, np.full(3, 1 / 3), 0.3, 2.0, np.ones(2), centre)


def test_unsigned_centres_do_not_wrap(monkeypatch):
    # a centre on the stay run opens the window at run 1 in any integer
    # type; an unsigned 0 - 1 would wrap to the last window instead
    firsts = []

    def window(g, costs, *args):
        first, lam = _window_minimizer(g, costs, *args)
        firsts.append(first)
        return first, lam

    monkeypatch.setattr(dual, "_window_minimizer", window)
    kernel, run_max = tanh_step(1.0)
    args = (run_max, kernel.costs, kernel.weights, kernel.radius, 2.0)
    lam_star = solve_batch(*args)[1]
    centre = np.zeros(run_max.shape[1:], np.uint8)
    centre[:, ::2] = 3
    got = [solve_window(*args, lam_star, c) for c in (centre, centre.astype(np.intp))]
    assert np.array_equal(firsts[0], np.where(centre == 3, 2, 1))
    assert np.array_equal(firsts[0], firsts[1])
    assert all(np.array_equal(a, b) for a, b in zip(*got))


def test_equal_maxima_pay_the_cheaper_cost():
    # at lam = 0 candidates 1 and 2 tie at 1; at lam = 4 candidate 1 ties the
    # stay value at 1 - 4 * 0.25 = 0: the first, cheaper candidate pays
    g = np.array([0.0, 1.0, 1.0])[:, None, None] * np.ones((3, 2, 2))
    lam = np.array([0.0, 4.0])
    costs = np.array([0.0, 0.25, 1.0])
    mx, paid = _best_candidates(g, costs, lam)
    assert np.array_equal(mx, [[1.0, 0.0]] * 2)
    assert np.array_equal(paid, [[1, 0]] * 2)
    # budget 1/64 moves a sixteenth of the mass to candidate 1, gaining 1
    value, _ = solve_batch(g[:, :1, :1], costs, np.ones(1), 0.125, 2.0)
    assert value[0] == 0.0625


def masked_copy_candidates(g, costs, lam):
    """The candidate loop on whole (Q, M) arrays, with an intp index that a
    masked copy updates: the reference ``_best_candidates`` keeps the bits
    of."""
    mx = g[0].copy()
    paid = np.zeros(mx.shape, np.intp)
    cand = np.empty_like(mx)
    better = np.empty(mx.shape, bool)
    for d in range(1, len(g)):
        np.subtract(g[d], costs[d] * lam, out=cand)
        np.greater(cand, mx, out=better)
        np.maximum(mx, cand, out=mx)
        np.copyto(paid, d, where=better)
    return mx, paid


def assert_masked_copy_bits(g, costs, lam):
    mx, paid = _best_candidates(g, costs, lam)
    want_mx, want_paid = masked_copy_candidates(g, costs, lam)
    assert paid.dtype == np.intp
    assert np.array_equal(mx.view(np.int64), want_mx.view(np.int64))
    assert np.array_equal(paid, want_paid)


def test_blocked_candidates_keep_the_masked_copy_bits(monkeypatch):
    # values on a grid of quarters and lam = 0 on some nodes make exact ties;
    # 300 candidates need a two-byte index, which atom 0 pays; atom rows of
    # a third of a block and of more than a block give several blocks, the
    # last one short; and a batch of one node gives M = 1
    rng = np.random.default_rng(43)
    third = dual._BLOCK // 3 + 1
    for c, q, m in ((9, 5, 6), (300, 3, 7), (4, 5, third), (3, 3, dual._BLOCK + 3), (9, 7, 1)):
        g = rng.integers(-8, 8, (c, q, m)) / 4.0
        g[:, 0] = np.arange(c)[:, None]  # the last candidates pay where lam = 0
        costs = np.concatenate([[0.0], np.sort(rng.integers(1, 4 * c, c - 1)) / 16.0])
        lam = rng.integers(0, 5, m) / 2.0
        lam[::3] = 0.0
        assert_masked_copy_bits(g, costs, lam)
        assert_masked_copy_bits(g, costs, rng.uniform(0.0, 4.0, m))
    # every evaluation of a solve from a Fortran-ordered batch
    seen = []

    def checked(g, costs, lam):
        assert_masked_copy_bits(g, costs, lam)
        seen.append(g.shape[2])
        return _best_candidates(g, costs, lam)

    monkeypatch.setattr(dual, "_best_candidates", checked)
    kernel, run_max = tanh_step(1.0)
    solve_batch(np.asfortranarray(run_max), kernel.costs, kernel.weights, kernel.radius, 2.0)
    assert len(seen) > 2 and seen[-1] < seen[0]


def window_dual(g, costs, w, rp, first, lam):
    """The window's rows, (4, Q, N) values and costs, and its dual at lam:
    the stay run and the three runs from ``first``, clamped to D - 1."""
    runs = np.minimum(first + np.arange(3)[:, None, None], len(costs) - 1)
    values = np.concatenate([g[:1], np.take_along_axis(g, runs, axis=0)])
    wcosts = np.concatenate([np.zeros((1,) + first.shape), costs[runs]])
    return values, wcosts, lam * rp + (w[:, None] * (values - wcosts * lam).max(axis=0)).sum(axis=0)


def test_window_walk_gives_the_exact_lp_of_the_window():
    # values on a grid of eighths tie across runs, D <= 4 repeats runs in the
    # window, atom 0 of the first three nodes never beats its stay value, and
    # the guesses lie on both sides of the minimizer: the window's dual at
    # the walk's multiplier is the window's exact LP value, and the walk
    # started from that multiplier stays there
    rng = np.random.default_rng(37)
    q, n = 4, 12
    for trial in range(60):
        d = [2, 3, 4, 5, 17][trial % 5]
        steps = np.sort(rng.choice(np.arange(1, 40), d - 1, replace=False))
        costs = np.concatenate([[0.0], steps / 64.0])
        g = np.round(rng.standard_normal((d, q, n)) * 4.0) / 8.0
        g[1:, 0, :3] = g[0, 0, :3] - np.abs(g[1:, 0, :3])
        w = rng.random(q)
        w /= w.sum()
        rp = [0.1, 0.3, 1.0][trial % 3] ** 2
        centre = rng.integers(0, d, (q, n))
        lam0 = rng.uniform(0.0, 8.0, n) * (rng.random(n) < 0.8)
        first, lam = _window_minimizer(g, costs, w, rp, centre, lam0)
        assert np.array_equal(first, np.clip(centre - 1, 1, max(d - 3, 1)))
        values, wcosts, dual_w = window_dual(g, costs, w, rp, first, lam)
        for k in range(n):
            lp = exact_lp(values[:, :, k].T, wcosts[:, :, k].T, w, rp)
            assert abs(dual_w[k] - lp) <= 1e-12, (trial, k)
        assert np.array_equal(_window_minimizer(g, costs, w, rp, centre, lam)[1], lam)


def test_bad_window_centres_fall_back_to_solve_batch(monkeypatch):
    # every element centred on the last run: at t = 1 no node certifies on
    # that window, so all of them go to one ``solve_batch``, which gives its
    # values up to rounding
    fallback = []

    def counted(g, *args):
        fallback.append(g.shape[2])
        return solve_batch(g, *args)

    kernel, run_max = tanh_step(1.0)
    args = (run_max, kernel.costs, kernel.weights, kernel.radius, 2.0)
    n = run_max.shape[2]
    cold, lam_star = solve_batch(*args)
    monkeypatch.setattr(dual, "solve_batch", counted)
    last = np.full(run_max.shape[1:], len(kernel.costs) - 1)
    value, lam, runs = solve_window(*args, lam_star, last)
    assert fallback == [n]
    assert np.max(np.abs(value - cold)) <= 1e-14 * np.max(np.abs(cold))
    # the runs returned are those paid at the returned multipliers
    assert np.array_equal(runs, _best_candidates(run_max, kernel.costs, lam)[1])


def test_one_window_then_solve_batch_on_the_rest(monkeypatch):
    # even nodes centred on the runs they pay at the minimizer, odd ones on
    # the last run: one window, then one ``solve_batch`` on exactly the
    # nodes that window left uncertified, some but not all of them
    windows, fallback = [], []

    def window(g, costs, *args):
        first, lam = _window_minimizer(g, costs, *args)
        windows.append((first, _best_candidates(g, costs, lam)[1]))
        return first, lam

    def counted(g, *args):
        fallback.append(g)
        return solve_batch(g, *args)

    kernel, run_max = tanh_step(1.0)
    args = (run_max, kernel.costs, kernel.weights, kernel.radius, 2.0)
    cold, lam_star = solve_batch(*args)
    centre = _best_candidates(run_max, kernel.costs, lam_star)[1]
    centre[:, 1::2] = len(kernel.costs) - 1
    monkeypatch.setattr(dual, "_window_minimizer", window)
    monkeypatch.setattr(dual, "solve_batch", counted)
    value, _, _ = solve_window(*args, lam_star, centre)
    assert len(windows) == 1 and len(fallback) == 1
    first, runs = windows[0]
    inside = (runs == 0) | ((runs >= first) & (runs <= first + 2))
    left = np.flatnonzero(~np.all(inside, axis=0))
    assert 0 < len(left) < run_max.shape[2]
    assert np.array_equal(fallback[0], run_max[:, :, left])
    assert np.max(np.abs(value - cold)) <= 1e-14 * np.max(np.abs(cold))


def test_windowed_steps_give_the_exact_lp(monkeypatch):
    # a warm default step at dt = 2^-8 applied to its own output: from the
    # third apply on it solves through windows, and on a sample of nodes
    # each windowed value is the exact LP value of its step up to 8 ulps of 1
    windowed = []

    def recorded(gvals, *args):
        windowed.append(gvals)
        return solve_window(gvals, *args)

    monkeypatch.setattr(operators, "solve_window", recorded)
    grid = Grid(-8.0, 8.0, 513)
    cfg = OperatorConfig(brownian_model([[0.5]], [[1.0]]), 0.5, grid)
    kernel = _StepKernel(cfg, cfg.model.actions[0], 2.0 ** -8, {}, warm=True)
    values = np.tanh(grid.axes[0])
    rng = np.random.default_rng(41)
    for step in range(5):
        values = kernel.apply(ScalarField(grid, values))
        assert len(windowed) == max(step - 1, 0)
        if windowed:
            gvals = windowed[-1]
            for k in rng.choice(grid.num_nodes, 16, replace=False):
                lp = exact_lp(
                    gvals[:, :, k].T, [kernel.costs] * 16, kernel.weights, kernel.radius ** 2
                )
                assert abs(values[k] - lp) <= 8 * 2.0 ** -52


@pytest.mark.parametrize("call, message", [
    # six atoms, one more than the enumeration oracle takes
    (lambda: brute_force_sup(DualInstance(
        DiscreteMeasure(np.zeros((6, 1)), np.full(6, 1 / 6)), [np.zeros((1, 1))] * 6, linear, 0.1)),
     r"instance too large for the enumeration oracle \(6 atoms, up to 1 candidates per atom\)"),
    (lambda: solve_window(np.zeros((2, 1, 1)), np.array([0.0, 1.0]), np.ones(1), 0.0, 2.0,
                          np.zeros(1), None),
     "a window needs a positive radius and a cost above 0"),
])
def test_oracle_and_window_refusals(call, message):
    with pytest.raises(InputError, match=message):
        call()
