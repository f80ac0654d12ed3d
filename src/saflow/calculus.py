"""Smoothed-amplitude-flow loss calculus.

The scalar building blocks are

    gamma(t) = |t|                      if |t| > beta
               t^2/(2 beta) + beta/2    if |t| <= beta

    psi(u, v)   = (gamma(u/v) - 1)^2 v^2 / 2
    psi_u(u, v) = d psi / d u
                = sgn(u) (|u| - |v|)                    if |u| > beta |v|
                  u^3/(2 beta^2 v^2) + (1/2 - 1/beta) u if |u| <= beta |v|
    phi(t)      = 1 + 3 t^2/(2 beta^2) 1{|t|<beta} - (1/2 + 1/beta) 1{|t|<beta}

At v = 0 every u != 0 is on the outer branch: psi(u, 0) = u^2/2, psi_u(u, 0) = u.
The m-measurement loss is F(z) = mean_i psi(<a_i, z>, y_i) with
y_i = |<a_i, x>| >= 0 (psi and psi_u are even in v, so magnitudes suffice).
All functions broadcast over numpy arrays.  Per-measurement reductions use
numpy's pairwise summation, so results are reproducible bit for bit on a
fixed BLAS thread count.

beta is restricted to (0, 1]; values above 3/4 trigger a warning because
the curvature-sign guarantees are only expected up to that point.
"""

from __future__ import annotations

import warnings

import numpy as np

from .measurement import checked_magnitudes, pair
from .parallel import matvec

DEFAULT_BETA = 0.5


def check_beta(beta):
    """Validate the smoothing parameter; scalars and arrays both accepted."""
    if type(beta) is float and 0.0 < beta <= 0.75:
        return beta  # the common case, once per iterate of a solve
    arr = np.asarray(beta)
    if not np.all((arr > 0.0) & (arr <= 1.0)):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if np.any(arr > 0.75):
        warnings.warn(
            "beta > 0.75: landscape guarantees are not expected to hold",
            stacklevel=3,
        )
    return beta


def _psi_and_psi_u(u, v, beta):
    """(psi(u, v), psi_u(u, v)) from one branch selection: the masks and the
    ratio u/v are built once, and each branch keeps its own expressions."""
    check_beta(beta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    au = np.abs(u)
    av = np.abs(v)
    outer = 0.5 * (au - av) ** 2
    vsq = v * v
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = u / np.where(av > 0, v, 1.0)  # bounded by beta where selected
        tt = t * t
        dev = tt / (2.0 * beta) + beta / 2.0 - 1.0
        inner = 0.5 * dev * dev * vsq
        # m-vectors go at their last use, keeping the peak below psi's alone:
        # a higher one was seen to page-fault on every iterate at m = 8000
        del t, dev, vsq
        inner_u = tt * u / (2.0 * beta * beta) + (0.5 - 1.0 / beta) * u
    use_inner = au <= beta * av
    value = np.where(use_inner, inner, outer)
    del inner, outer, tt
    return value, np.where(use_inner, inner_u, np.sign(u) * (au - av))


def psi(u, v, beta: float = DEFAULT_BETA):
    """Per-measurement loss (gamma(u/v) - 1)^2 v^2 / 2 (u^2/2 at v = 0).

    The outer branch is evaluated ratio-free as (|u| - |v|)^2 / 2 (the same
    quantity algebraically), so extreme u/v ratios cannot overflow; on the
    inner branch the ratio is bounded by beta.
    """
    return _psi_and_psi_u(u, v, beta)[0]


def psi_u(u, v, beta: float = DEFAULT_BETA):
    """Partial derivative of psi with respect to u (even in v; u at v = 0).

    The inner branch u^3/(2 beta^2 v^2) is evaluated as (u/v)^2 u / (2 beta^2)
    so it can neither overflow (|u/v| <= beta there) nor hit 0/0 on
    subnormal v; explicit products instead of the pow ufunc keep the result
    exactly odd in u, which mirror-exact descent trajectories rely on.
    """
    return _psi_and_psi_u(u, v, beta)[1]


def phi(t, beta: float = DEFAULT_BETA):
    """Second-derivative weight of psi in u, as a function of the ratio t = u/v.

    Piecewise constant-plus-quadratic with a jump of size 1 - 1/beta at
    |t| = beta; the value 1 is used on |t| >= beta (and for v = 0, where the
    ratio is infinite).
    """
    check_beta(beta)
    t = np.asarray(t, dtype=float)
    ind = np.abs(t) < beta
    quad = np.where(ind, t * t, 0.0)  # avoids inf*0 when the ratio is infinite
    return 1.0 + (1.5 / (beta * beta)) * quad - (0.5 + 1.0 / beta) * ind


def _check_dims(z, A, y):
    if A.shape[1] != z.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, z has length {z.shape[0]}")
    if A.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, y has length {y.shape[0]}")


def _gradient(A, y, w, u, c):
    """mean_i c_i a_i, times the phase w_i/|w_i| on complex data (w_i where w_i = 0)."""
    if np.iscomplexobj(w):
        c = c * (w / np.where(u > 0, u, 1.0))
    return matvec(A.T, c) / y.shape[0]


def loss(z: np.ndarray, A: np.ndarray, y, beta: float = DEFAULT_BETA) -> float:
    """Mean smoothed-amplitude loss F(z) over all measurements.

    Real z uses the signed products <a_i, z>; complex z uses their moduli
    (psi is even in u, so the two agree on real data).
    """
    return loss_and_gradient(z, A, y, beta)[0]


def gradient(z: np.ndarray, A: np.ndarray, y, beta: float = DEFAULT_BETA) -> np.ndarray:
    """Gradient of the loss: mean_i psi_u(<a_i,z>, y_i) a_i.

    Complex iterates use the phase-factor form
    mean_i psi_u(|<a_i,z>|, y_i) * (<a_i,z>/|<a_i,z>|) * a_i, with zero
    contribution where <a_i, z> = 0; it reduces to the real formula when
    imaginary parts vanish.
    """
    return loss_and_gradient(z, A, y, beta)[1]


def loss_and_gradient(z, A, y, beta: float = DEFAULT_BETA):
    """Loss and gradient from one forward matvec and one branch selection: the
    body behind loss and gradient, and the solver loop's call.  psi's first
    argument u is <a_i, z> on real data and |<a_i, z>| on complex."""
    y = np.asarray(y, dtype=float)
    _check_dims(z, A, y)
    w = pair(A, z)
    u = np.abs(w) if np.iscomplexobj(w) else w
    f, c = _psi_and_psi_u(u, y, beta)
    return float(np.mean(f)), _gradient(A, y, w, u, c)


def dir_second_derivative(
    z: np.ndarray, v: np.ndarray, A: np.ndarray, y, beta: float = DEFAULT_BETA
) -> float:
    """One-sided second directional derivative of the loss along v (real field).

    Equals mean_i [phi(<a_i,z>/y_i) <a_i,v>^2 + Gamma_i], where Gamma_i is a
    correction supported on the measure-zero boundary set |<a_i,z>| = beta y_i:
    Gamma_i = (q_i - 1) <a_i,v>^2 with q_i = 1 when <a_i,z><a_i,v> > 0 and
    q_i = 2 - 1/beta otherwise.  Detected with exact floating equality.
    """
    if np.iscomplexobj(z) or np.iscomplexobj(A) or np.iscomplexobj(v):
        raise NotImplementedError("directional second derivative is real-field only")
    y = checked_magnitudes(y)
    _check_dims(z, A, y)
    if np.linalg.norm(v) == 0:
        raise ValueError("direction v must be nonzero")
    check_beta(beta)
    wz = A @ z
    return float(np.mean(_curvature_terms(_phi_weights(wz, y, beta), wz, A @ v, y, beta)))


def _phi_weights(wz, y, beta):
    """phi(<a_i,z>/y_i) from wz = A @ z, with an infinite ratio where y_i = 0."""
    pos = y > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(pos, wz / np.where(pos, y, 1.0), np.inf)
    return phi(t, beta)


def _curvature_terms(weights, wz, wv, y, beta):
    """The terms phi(<a_i,z>/y_i) <a_i,v>^2 + Gamma_i of dir_second_derivative,
    from weights = _phi_weights(wz, y, beta) and wv = A @ v.  With wv = A @ V
    and weights, wz and y as columns, column k holds the terms along V[:, k]."""
    terms = weights * wv * wv
    on_boundary = (np.abs(wz) == beta * y) & (y > 0)  # y = 0 terms are u^2/2
    if on_boundary.any():
        q = np.where(wz * wv > 0, 1.0, 2.0 - 1.0 / beta)
        terms = terms + np.where(on_boundary, (q - 1.0) * wv * wv, 0.0)
    return terms
