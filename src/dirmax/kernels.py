"""Summability kernels and majorants used by the smoothed directional operators.

The Fejér kernel at frequency scale r > 0 is

    K_r(x) = 4 sin^2(r x / 2) / (r x^2),        K_r(0) = r,

the de la Vallée-Poussin kernel is V_r = 2 K_{2r} - K_r, and V_r has the
trapezoidal transform profile (normalization (1/2pi) * integral V_r(x)
exp(i x xi) dx)

    vhat_r(xi) = 1 on |xi| <= r, 0 on |xi| >= 2r, linear in between.

The Fejér kernel expands into the geometric series
K_r = (1/2) V_{r/2} + (1/4) V_{r/4} + ...; the partial sum to depth d equals
K_r - 2^{-d} K_{r/2^d}, so the truncation error is at most r * 4^{-d}.

The bump phi is a fixed nonnegative function with phi >= 1 on [0, 1] and
Fourier support in [-1, 1]:

    phi(x) = A * sinc^4((x - 1/2) / 4),   sinc(t) = sin(t)/t,

whose transform is a cubic B-spline profile supported in [-1, 1] times the
phase of the half-unit shift.  A is fixed so the minimum of phi over [0, 1]
(attained at the endpoints) is slightly above 1.

zeta_r majorizes |V_r| by a sum of dyadic indicators
sum_{k >= kmin(r)} gamma_k 1_{(-2^k, 2^k)} with gamma_k = 4 * 2^{-2k} / r and
kmin(r) = ceil(log2(1/r)) + 1; the tail sums in closed form, giving an L1
norm between 4 and 8 uniformly in r.

All evaluators are pure and stateless, safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _check_integer, _positive_real

__all__ = [
    "fejer_eval",
    "vp_eval",
    "vp_transform",
    "fejer_from_vp",
    "bump_eval",
    "bump_integral",
    "zeta_eval",
    "zeta_l1_norm",
    "BUMP_AMPLITUDE",
    "BUMP_CENTER",
]

# phi(x) = A sinc^4((x - 1/2)/4); the 1.0001 margin keeps phi >= 1 on [0, 1]
# robust under roundoff (the unscaled minimum sits at the endpoints).
BUMP_CENTER = 0.5
BUMP_AMPLITUDE = 1.0001 * (math.sin(0.125) / 0.125) ** -4

_TAYLOR_GUARD = 1e-6


def fejer_eval(r: float, x):
    """Fejér kernel K_r(x) = 4 sin^2(rx/2) / (r x^2); K_r(0) = r.

    Nonnegative everywhere; accepts scalars or arrays in x.  Near rx = 0 a
    second-order Taylor branch avoids the 0/0 cancellation.
    """
    r = _positive_real("r", r)
    x = np.asarray(x, dtype=float)
    u = r * x
    small = np.abs(u) < _TAYLOR_GUARD
    with np.errstate(divide="ignore", invalid="ignore"):
        main = 4.0 * np.sin(u / 2.0) ** 2 / (r * x * x)
    taylor = r * (1.0 - u * u / 12.0)
    out = np.where(small, taylor, main)
    return float(out) if out.ndim == 0 else out


def vp_eval(r: float, x):
    """Vallée-Poussin kernel V_r = 2 K_{2r} - K_r; V_r(0) = 3r."""
    r = _positive_real("r", r)
    return 2.0 * fejer_eval(2.0 * r, x) - fejer_eval(r, x)


def vp_transform(r: float, xi):
    """Transform profile of V_r: 1 on |xi| <= r, 0 on |xi| >= 2r, linear between.

    Normalization: (1/2pi) * integral V_r(x) exp(i x xi) dx.
    """
    r = _positive_real("r", r)
    xi = np.asarray(xi, dtype=float)
    out = np.clip(2.0 - np.abs(xi) / r, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def fejer_from_vp(r: float, x, depth: int):
    """Partial sum sum_{j=1..depth} 2^{-j} V_{r/2^j}(x) of the Fejér expansion.

    Telescopes to K_r(x) - 2^{-depth} K_{r/2^depth}(x), so the truncation
    error is bounded by r * 4^{-depth}.
    """
    r = _positive_real("r", r)
    _check_integer("depth", depth, 1)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(1, depth + 1):
        out = out + 2.0**-j * vp_eval(r / 2.0**j, x)
    return float(out) if out.ndim == 0 else out


def bump_eval(h: float, x):
    """Scaled bump phi_h(x) = phi(x/h) / h.

    phi(x) = A sinc^4((x - 1/2)/4): nonnegative, >= 1 on [0, 1], transform
    supported in [-1, 1] (so phi_h's transform lives in [-1/h, 1/h]).
    """
    h = _positive_real("h", h)
    x = np.asarray(x, dtype=float)
    t = (x / h - BUMP_CENTER) / 4.0
    sinc = np.sinc(t / np.pi)  # sin(t)/t with the removable singularity handled
    out = BUMP_AMPLITUDE * sinc**4 / h
    return float(out) if out.ndim == 0 else out


def bump_integral() -> float:
    """integral of phi over the line: A * 8 pi / 3 (scale invariant in h)."""
    return BUMP_AMPLITUDE * 8.0 * math.pi / 3.0


def _zeta_kmin(r: float) -> int:
    # indices k > ceil(log2(1/r)), i.e. k >= ceil(log2(1/r)) + 1
    return math.ceil(math.log2(1.0 / r)) + 1


def zeta_eval(r: float, x):
    """Dyadic-indicator majorant of |V_r|.

    zeta_r(x) = sum_{k >= K(x)} 4 * 2^{-2k} / r with K(x) the smallest
    admissible index whose indicator still covers x; the geometric tail sums
    to (16/3) * 4^{-K(x)} / r exactly.  Non-increasing in |x|, and
    |V_r| <= C * zeta_r with an absolute constant (about 9 at worst, attained
    near x = 0 just below dyadic values of r).
    """
    r = _positive_real("r", r)
    x = np.asarray(x, dtype=float)
    kmin = _zeta_kmin(r)
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        kx = np.where(ax > 0.0, np.floor(np.log2(np.where(ax > 0, ax, 1.0))) + 1.0, -np.inf)
    k_eff = np.maximum(float(kmin), kx)
    out = (16.0 / 3.0) * np.power(4.0, -k_eff) / r
    return float(out) if out.ndim == 0 else out


def zeta_l1_norm(r: float) -> float:
    """L1 norm of zeta_r: sum_k gamma_k 2^{k+1} = 16 / (r * 2^{kmin(r)}).

    Lies in (4, 8] for every r, so the majorant family is uniformly in L1.
    """
    r = _positive_real("r", r)
    return 16.0 / (r * 2.0 ** _zeta_kmin(r))
