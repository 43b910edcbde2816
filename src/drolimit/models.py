"""Controlled reference Markov processes with Gaussian transition laws.

Every action is an Ornstein-Uhlenbeck process dX = (b - theta X) dt + sigma dW,
of the form X_t = psi_t(x) + Y_t with Y_t a centered Gaussian:

    psi_t(x) = e^{-theta t} x + int_0^t e^{-theta s} b ds,
    Cov(Y_t) = int_0^t e^{-theta s} sigma sigma^T e^{-theta s} ds,

with theta symmetric positive semi-definite and 0 unless given, which is
Brownian motion with drift b (psi_t(x) = x + b t, Cov(Y_t) =
sigma sigma^T t).  The flows are 1-Lipschitz in x, and the laws are
represented for quadrature as tensor Gauss-Hermite discretizations (exact
eigen mapping of the covariance), which the rest of the package consumes as
finite measures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError

Array = np.ndarray

_ATOL = 1e-12


@dataclass(eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure: atoms (k, d) and weights (k,)."""

    atoms: Array
    weights: Array

    def __post_init__(self):
        self.atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise InputError("atom/weight count mismatch")
        if not np.all(np.isfinite(self.atoms)):
            raise InputError("atoms must be finite")
        if np.any(self.weights < -_ATOL):
            raise InputError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > _ATOL:
            raise InputError(f"weights sum to {self.weights.sum()!r}, not 1")

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(eq=False)
class Action:
    """One action's parameters: dX = (drift - theta X) dt + sigma dW.

    The dimension d >= 1 is the drift's length; sigma and theta must be (d, d)
    and finite (a scalar sigma or theta is (1, 1) in 1-d), theta symmetric
    positive semi-definite, and 0 unless given.  InputError otherwise."""

    label: str
    drift: Optional[Array] = None       # the constant b(a)
    sigma: Optional[Array] = None       # diffusion matrix
    theta: Optional[Array] = None       # mean-reversion matrix; 0 unless given

    def __post_init__(self):
        self.drift = _checked(self.drift, "drift").ravel()
        d = len(self.drift)
        if d == 0:
            raise InputError("drift must have one or more entries")
        self.sigma = _checked(self.sigma, "sigma", d)
        self.theta = np.zeros((d, d)) if self.theta is None else _checked(self.theta, "theta", d)
        if not np.allclose(self.theta, self.theta.T, atol=1e-10):
            raise InputError(f"theta for action {self.label!r} is not symmetric")
        if np.linalg.eigvalsh(self.theta).min() < -1e-10:
            raise InputError(f"theta for action {self.label!r} is not PSD")


class ReferenceModel:
    """A finite action set of one dimension, with distinct labels."""

    def __init__(self, actions: Sequence[Action], dim: int = 1):
        if not actions:
            raise InputError("action set must be nonempty")
        self.dim = int(dim)
        self.actions = tuple(actions)
        labels = set()
        for a in self.actions:
            if a.drift.shape != (self.dim,):
                raise InputError(f"drift must have shape ({self.dim},), got {a.drift.shape}")
            if a.label in labels:
                raise InputError(f"duplicate action label {a.label!r}")
            labels.add(a.label)


def _checked(v, name: str, d: Optional[int] = None) -> Array:
    """``v`` as a float array, of shape (d, d) unless d is None (a scalar is
    (1, 1) in 1-d); InputError if it is missing, of another shape or not
    finite."""
    if v is None:
        raise InputError(f"{name} is required")
    arr = np.asarray(v, dtype=float)
    if d is not None:
        if arr.ndim == 0 and d == 1:
            arr = arr.reshape(1, 1)
        if arr.shape != (d, d):
            raise InputError(f"{name} must have shape ({d},{d}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr


def brownian_model(drifts, sigma, dim: int = 1) -> ReferenceModel:
    """Convenience constructor: one action a<i> per drift vector, shared sigma."""
    acts = [Action(label=f"a{i}", drift=np.atleast_1d(b), sigma=sigma) for i, b in enumerate(drifts)]
    return ReferenceModel(acts, dim=dim)


def _exp_decay_integral(lam: Array, t: float) -> Array:
    """Entrywise int_0^t e^{-lam s} ds, stable near lam t = 0."""
    a = lam * t
    small = np.abs(a) < 1e-10
    return np.where(small, t * (1.0 - 0.5 * a), np.divide(
        -np.expm1(-a), np.where(small, 1.0, lam)))


def psi(act: Action, t: float, x) -> Array:
    """Deterministic drift flow psi_t^a applied to finite points x of shape
    (..., d); InputError for any other shape."""
    if t < 0:
        raise InputError(f"time must be nonnegative, got {t}")
    x = np.asarray(x, dtype=float)
    d = len(act.drift)
    if x.ndim == 0 or x.shape[-1] != d or not np.all(np.isfinite(x)):
        raise InputError(f"points must be finite with trailing dimension {d}, got shape {x.shape}")
    lam, q = np.linalg.eigh(act.theta)
    decay = np.exp(-np.clip(lam, 0.0, None) * t)
    flow = (q * decay) @ q.T
    pull = q @ (_exp_decay_integral(np.clip(lam, 0.0, None), t) * (q.T @ act.drift))
    return (x.reshape(-1, d) @ flow.T + pull).reshape(x.shape)


def covariance(act: Action, t: float) -> Array:
    """Closed-form covariance of Y_t^a."""
    if t < 0:
        raise InputError(f"time must be nonnegative, got {t}")
    ssT = act.sigma @ act.sigma.T
    lam, q = np.linalg.eigh(act.theta)
    lam = np.clip(lam, 0.0, None)
    m = q.T @ ssT @ q
    pair = lam[:, None] + lam[None, :]
    integ = _exp_decay_integral(pair, t)
    return q @ (m * integ) @ q.T


def law(act: Action, t: float, quad_order: int = 16) -> DiscreteMeasure:
    """Gauss-Hermite discretization of the (possibly degenerate) law of Y_t^a.

    Exact for polynomial integrands up to degree 2*quad_order - 1 along every
    non-degenerate covariance direction; returns the point mass at 0 when the
    covariance vanishes (in particular at t = 0).
    """
    if not 4 <= quad_order <= 64:
        raise InputError(f"quad_order must be in [4, 64], got {quad_order}")
    d = len(act.drift)
    cov = covariance(act, t)
    evals, evecs = np.linalg.eigh(cov)
    if evals.min() < -1e-10 * max(1.0, abs(evals.max())):
        raise InputError("covariance is not positive semi-definite")
    evals = np.clip(evals, 0.0, None)
    keep = evals > 1e-15 * max(1.0, evals.max())
    if not keep.any():
        return DiscreteMeasure(np.zeros((1, d)), np.ones(1))
    nodes, wts = np.polynomial.hermite.hermgauss(quad_order)
    axes_nodes, axes_wts = [], []
    for j in range(d):
        if keep[j]:
            axes_nodes.append(np.sqrt(2.0 * evals[j]) * nodes)
            axes_wts.append(wts)
        else:
            axes_nodes.append(np.zeros(1))
            axes_wts.append(np.ones(1))
    z = np.stack(np.meshgrid(*axes_nodes, indexing="ij"), -1).reshape(-1, d)
    w = functools.reduce(np.multiply.outer, axes_wts).ravel()
    atoms = z @ evecs.T
    w = w / w.sum()
    return DiscreteMeasure(atoms, w)

