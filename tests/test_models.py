import math

import numpy as np
import pytest

from drolimit import (
    Action,
    DiscreteMeasure,
    Grid,
    InputError,
    ReferenceModel,
    ScalarField,
    brownian_model,
    covariance,
    law,
    psi,
)


def ou_action(theta, drift, sigma):
    return Action("a0", sigma=np.atleast_2d(sigma), theta=np.atleast_2d(theta), drift=np.atleast_1d(drift))


def brownian_action(drift, sigma):
    return Action("a0", drift=drift, sigma=sigma)


def test_psi_brownian():
    act = brownian_action([0.3], [[1.0]])
    assert psi(act, 2.0, np.array([1.0]))[0] == pytest.approx(1.6)


def test_psi_identity_at_time_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 1))
    act = brownian_action([0.7], [[1.0]])
    assert np.array_equal(psi(act, 0.0, x), x)
    ou = ou_action(1.3, 0.4, 1.0)
    assert np.allclose(psi(ou, 0.0, x), x, atol=1e-14)


def test_psi_refuses_points_without_a_trailing_model_dimension():
    act = brownian_action([0.7], [[1.0]])
    for x in (np.zeros(5), 0.5, np.array([[0.0], [np.nan]])):
        with pytest.raises(InputError):
            psi(act, 0.5, x)
    act2 = brownian_action([0.7, 0.0], np.eye(2))
    assert psi(act2, 1.0, np.zeros((3, 4, 2))).shape == (3, 4, 2)
    with pytest.raises(InputError):
        psi(act2, 1.0, np.zeros((4, 1)))


def test_psi_ou_scalar_decay():
    ou = ou_action(1.0, 0.0, 1.0)
    assert psi(ou, math.log(2.0), np.array([4.0]))[0] == pytest.approx(2.0, abs=1e-12)


def test_psi_ou_matches_quadrature_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2))
    theta = a @ a.T / 2
    sigma = rng.standard_normal((2, 2)) * 0.6
    b = rng.standard_normal(2)
    ou = Action("a0", sigma=sigma, theta=theta, drift=b)
    t = 0.7
    lam, q = np.linalg.eigh(theta)
    s_grid = np.linspace(0, t, 20001)

    def expm_sym(s):
        return (q * np.exp(-lam * s)) @ q.T

    pull = np.trapezoid(np.array([expm_sym(s) @ b for s in s_grid]), s_grid, axis=0)
    x0 = rng.standard_normal(2)
    assert np.allclose(psi(ou, t, x0), expm_sym(t) @ x0 + pull, atol=1e-9)
    ssT = sigma @ sigma.T
    cov_oracle = np.trapezoid(
        np.array([expm_sym(s) @ ssT @ expm_sym(s) for s in s_grid]), s_grid, axis=0
    )
    assert np.allclose(covariance(ou, t), cov_oracle, atol=1e-8)


def test_psi_one_lipschitz():
    rng = np.random.default_rng(5)
    actions = [brownian_action([0.9], [[1.0]]), ou_action(2.0, -0.3, 0.7)]
    for act in actions:
        for _ in range(50):
            x1, x2 = rng.standard_normal(2) * 3
            t = rng.random() * 2
            d = abs(psi(act, t, np.array([x1]))[0] - psi(act, t, np.array([x2]))[0])
            assert d <= abs(x1 - x2) + 1e-12


def test_psi_drift_increment_bound():
    # ||psi_t(x) - x|| <= t C (1 + ||x||) with C = |b| (Brownian) and
    # C = max(|theta|, |b|) (OU)
    rng = np.random.default_rng(6)
    for act, c in [(brownian_action([1.5], [[1.0]]), 1.5), (ou_action(2.0, 0.8, 1.0), 2.0)]:
        for _ in range(50):
            x = rng.standard_normal(1) * 4
            t = rng.random() * 0.5 + 1e-3
            moved = psi(act, t, x)
            assert np.linalg.norm(moved - x) <= t * c * (1 + np.linalg.norm(x)) + 1e-12


def test_law_delta_at_zero():
    act = brownian_action([0.0], [[1.0]])
    mu = law(act, 0.0)
    assert mu.atoms.shape == (1, 1) and mu.weights[0] == 1.0 and mu.atoms[0, 0] == 0.0


def test_law_brownian_moments():
    act = brownian_action([0.0], [[1.0]])
    for t in (1.0, 0.25):
        mu = law(act, t, quad_order=16)
        mean = mu.weights @ mu.atoms[:, 0]
        assert abs(mean) <= 1e-12
        assert mu.weights @ (mu.atoms[:, 0] - mean) ** 2 == pytest.approx(t, abs=1e-10)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12


def test_law_moment_vanishes_smalltime():
    # second moment at t=1e-3 stays within 10 * t^{p/2} * bound for p=2
    act = brownian_action([0.0], [[1.3]])
    mu = law(act, 1e-3, quad_order=8)
    assert mu.weights @ np.sum(mu.atoms ** 2, axis=1) <= 10 * 1e-3 * 1.3 ** 2


def test_law_degenerate_sigma():
    act = brownian_action([0.5], [[0.0]])
    mu = law(act, 1.0)
    assert mu.atoms.shape[0] == 1
    assert mu.atoms[0, 0] == 0.0


def test_law_degenerate_axis_in_2d():
    # sigma = diag(1, 0): the covariance has a zero eigenvalue, so the law
    # puts its quad_order atoms on the first axis, with exact second moments
    act = brownian_action([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
    t = 0.5
    mu = law(act, t, quad_order=8)
    assert mu.atoms.shape == (8, 2)
    assert np.max(np.abs(mu.atoms[:, 1])) <= 1e-15
    assert abs(mu.weights.sum() - 1.0) <= 1e-12
    second = (mu.atoms * mu.weights[:, None]).T @ mu.atoms
    assert np.allclose(second, [[t, 0.0], [0.0, 0.0]], rtol=0.0, atol=1e-12)


def test_law_quad_order_bounds():
    act = brownian_action([0.0], [[1.0]])
    with pytest.raises(InputError):
        law(act, 1.0, quad_order=3)
    with pytest.raises(InputError):
        law(act, 1.0, quad_order=65)


def chapman_kolmogorov_residual(act, s, t, f, x, quad_order=16):
    """Residual at x of E f(X_{s+t}) taken in one step of s + t against two
    steps, t then s, both by quadrature; for Brownian and OU actions it is
    quadrature and interpolation error."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu_st = law(act, s + t, quad_order)
    lhs = float(mu_st.weights @ f.eval(psi(act, s + t, x)[None, :] + mu_st.atoms))
    mu_s = law(act, s, quad_order)
    mu_t = law(act, t, quad_order)
    mid = psi(act, s, psi(act, t, x)[None, :] + mu_t.atoms)   # (kt, d)
    vals = f.eval(mid[:, None, :] + mu_s.atoms[None, :, :])                  # (kt, ks)
    return abs(lhs - float(mu_t.weights @ vals @ mu_s.weights))


def test_chapman_kolmogorov_degenerate_time():
    act = brownian_action([0.2], [[1.0]])
    g = Grid(-8, 8, 513)
    f = ScalarField.from_function(g, np.cos)
    assert chapman_kolmogorov_residual(act, 0.0, 0.5, f, np.array([0.0])) <= 1e-10
    assert chapman_kolmogorov_residual(act, 0.5, 0.0, f, np.array([0.0])) <= 1e-10


def test_chapman_kolmogorov_brownian_cos():
    # both sides equal e^{-(s+t)/2} cos(x) for b=0; residual is discretization
    act = brownian_action([0.0], [[1.0]])
    g = Grid(-8, 8, 4097)
    f = ScalarField.from_function(g, np.cos)
    res = chapman_kolmogorov_residual(act, 0.5, 0.5, f, np.array([0.0]), quad_order=32)
    assert res <= 1e-6
    mu = law(act, 1.0, 32)
    lhs = float(mu.weights @ f.eval(mu.atoms[:, 0]))
    assert lhs == pytest.approx(math.exp(-0.5), abs=2e-6)


def test_chapman_kolmogorov_ou():
    ou = ou_action(1.0, 0.5, 1.0)
    g = Grid(-8, 8, 513)
    f = ScalarField.from_function(g, np.tanh)
    res = chapman_kolmogorov_residual(ou, 0.25, 0.75, f, np.array([0.3]), quad_order=16)
    assert res <= 1e-4


def test_model_validation():
    with pytest.raises(InputError):
        ReferenceModel([])
    with pytest.raises(InputError):
        ou_action(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), np.eye(2))  # not symmetric
    with pytest.raises(InputError):
        ou_action(-1.0, 0.0, 1.0)  # not PSD


def test_action_checks_itself():
    # each refusal comes while the action is built, before a model holds it;
    # the drift's length sets the dimension the matrices must have
    eye = np.eye(2)
    cases = [
        ({"sigma": [[1.0]]}, "drift is required"),
        ({"drift": [0.0]}, "sigma is required"),
        ({"drift": [np.nan], "sigma": [[1.0]]}, "drift must be finite"),
        ({"drift": [], "sigma": [[1.0]]}, "drift must have one or more entries"),
        ({"drift": [0.0], "sigma": [[np.inf]]}, "sigma must be finite"),
        ({"drift": [0.0], "sigma": [[1.0]], "theta": [[np.nan]]}, "theta must be finite"),
        ({"drift": [0.0, 0.0], "sigma": [[1.0]]}, r"sigma must have shape \(2,2\), got \(1, 1\)"),
        ({"drift": [0.0, 0.0], "sigma": eye, "theta": [[0.0, 1.0], [0.0, 0.0]]},
         "theta for action 'a0' is not symmetric"),
        ({"drift": [0.0], "sigma": [[1.0]], "theta": [[-1.0]]}, "theta for action 'a0' is not PSD"),
    ]
    for kwargs, message in cases:
        with pytest.raises(InputError, match=message):
            Action("a0", **kwargs)


def test_model_checks_dimension_and_labels():
    with pytest.raises(InputError, match=r"drift must have shape \(2,\), got \(1,\)"):
        brownian_model([[0.0]], [[1.0]], dim=2)
    twice = [Action("a0", drift=[0.0], sigma=[[1.0]]), Action("a0", drift=[0.5], sigma=[[1.0]])]
    with pytest.raises(InputError, match="duplicate action label 'a0'"):
        ReferenceModel(twice)
    # a scalar sigma (and theta) is the (1, 1) matrix in 1-d
    act = Action("a0", drift=[0.2], sigma=0.8, theta=0.5)
    assert ReferenceModel([act]).actions == (act,)
    assert act.sigma.shape == act.theta.shape == (1, 1)
    matrix = Action("a0", drift=[0.2], sigma=[[0.8]], theta=[[0.5]])
    assert np.array_equal(covariance(act, 1.0), covariance(matrix, 1.0))


def test_discrete_measure_validation():
    with pytest.raises(InputError):
        DiscreteMeasure(np.zeros((2, 1)), np.array([0.6, 0.6]))
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[np.inf]]), np.array([1.0]))
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.25, 0.75]))
    assert mu.weights @ np.sum(mu.atoms ** 2, axis=1) == pytest.approx(1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: DiscreteMeasure(np.zeros((2, 1)), np.ones(1)), "atom/weight count mismatch"),
    (lambda: DiscreteMeasure(np.zeros((2, 1)), [1.5, -0.5]), "weights must be nonnegative"),
    (lambda: psi(brownian_action([0.0], [[1.0]]), -1.0, np.zeros((1, 1))),
     "time must be nonnegative, got -1.0"),
    (lambda: covariance(brownian_action([0.0], [[1.0]]), -1.0), "time must be nonnegative, got -1.0"),
])
def test_model_refusals(call, message):
    with pytest.raises(InputError, match=message):
        call()
