"""Closed-form metrics for the N-copy averaged Bell-state analyzer.

For a psi+ dual-rail input with per-copy reflectivities eta^H_k (horizontal
analyzer) and eta^V_k (vertical analyzer), the post-selected output overlap
with the ideal analyzer's output depends only on the four sums

    sh = sum_k sqrt(eta^H_k)      shc = sum_k sqrt(1 - eta^H_k)
    sv = sum_k sqrt(eta^V_k)      svc = sum_k sqrt(1 - eta^V_k)

These are the copy sums of the per-copy features f of :mod:`interferometers`,
which the sweep engine takes once for M_N and these forms alike. The forms
match the Fock-space simulation to machine precision. :func:`bsm_closed_forms`
checks its input and applies the engine's formula; the copies sit on the last
axis, any leading axes broadcast, so draws of shape (S, N) give S values each.
"""

from __future__ import annotations

import numpy as np

from .interferometers import _check_reflectivity, _features


def _bsm_closed(sums: np.ndarray, n) -> tuple[np.ndarray, ...]:
    """``(F, P_success, F_norm)`` from the feature copy sums (..., 4) of n copies, unchecked.

    ``n`` is an int, or a float array of copy counts that broadcasts against
    the sums' leading axes. (n * n) ** 2 is exact for an int and, since the
    square of a count below 2**26 is exact, correctly rounded for a float:
    both divide by the float nearest n**4.
    """
    sh, shc, sv, svc = np.moveaxis(sums, -1, 0)
    num = (sh * svc + shc * sv) ** 2
    den = (sh**2 + shc**2) * (sv**2 + svc**2)
    n4 = (n * n) ** 2
    return num / n4, den / n4, num / den


def bsm_closed_forms(eta_h, eta_v):
    """``(F, P_success, F_norm)`` of the averaged analyzer from one pass of root sums.

    - ``F``: unnormalized overlap |<target|out>|^2. Equals 4*eta*(1-eta) for
      a single copy with eta_h = eta_v = eta, and 1 at the balanced point
      eta = 1/2.
    - ``P_success``: probability that both photons survive ancilla
      post-selection. Identically 1 for a single copy, whatever the
      reflectivities.
    - ``F_norm``: the overlap renormalized by the success probability.
      Bounded by 1 (Cauchy-Schwarz on the root sums).
    """
    eta_h, eta_v = _check_reflectivity("eta_h", eta_h), _check_reflectivity("eta_v", eta_v)
    if eta_h.ndim == 0 or eta_v.ndim == 0 or eta_h.shape[-1] != eta_v.shape[-1] or not eta_h.shape[-1]:
        raise ValueError("eta_h and eta_v need equal, non-empty copy axes (the last axis)")
    return _bsm_closed(_features(eta_h, eta_v).sum(axis=-2), eta_h.shape[-1])
