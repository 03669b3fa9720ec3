"""Covariance-matrix models of the imbalanced-receiver link.

``build_pm_covariance`` gives the prepare-and-measure matrix of the recorded
data; ``eb_from_measured`` maps a measured matrix to the equivalent
entanglement-based two-mode state used for the Holevo bound.
"""

from __future__ import annotations

import math

import numpy as np

from .estimation import estimate_excess_noise, estimate_transmission
from .gaussian import CovMat4
from .params import PhysicalParams


def build_pm_covariance(p: PhysicalParams) -> CovMat4:
    """Covariance matrix of (x_a, p_a, x_B, p_B) for ground-truth parameters.

    All entries in shot-noise units.  With zero imbalance the cross terms
    vanish and the usual heterodyne matrix is recovered.
    """
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sf, cf = math.sin(p.phi), math.cos(p.phi)
    tau_x, tau_p = p.tau_x, p.tau_p
    ka = p.v_a * p.alpha
    x_tot = p.v_mod + p.eps

    sigma_x = math.sqrt(p.eta * tau_x) * ct * ka
    sigma_p = -math.sqrt(p.eta * tau_p) * cf * ka
    s_ax_bp = -math.sqrt(p.eta * tau_p) * sf * ka
    s_ap_bx = math.sqrt(p.eta * tau_x) * st * ka
    v_bx = 1.0 + p.eta * tau_x * x_tot
    v_bp = 1.0 + p.eta * tau_p * x_tot
    s_bx_bp = -p.eta * math.sqrt(tau_x * tau_p) * x_tot * math.sin(p.phi + p.theta)

    mat = np.array(
        [
            [p.v_a, 0.0, sigma_x, s_ax_bp],
            [0.0, p.v_a, s_ap_bx, sigma_p],
            [sigma_x, s_ap_bx, v_bx, s_bx_bp],
            [s_ax_bp, sigma_p, s_bx_bp, v_bp],
        ]
    )
    return CovMat4(mat)


def no_switching_eb(v_mod: float, t_eff: float, eps_eff: float) -> np.ndarray:
    """Standard two-mode EB covariance of a symmetric Gaussian channel.

    Alice holds one arm of a two-mode squeezed vacuum of variance
    V = v_mod + 1; the other arm crosses a channel of transmittance
    ``t_eff`` with input-referred excess noise ``eps_eff``.
    """
    if v_mod < 1e-12:
        raise ValueError("no modulation, EB mapping singular")
    if not 0.0 < t_eff <= 1.0:
        raise ValueError(f"effective transmittance must be in (0, 1], got {t_eff}")
    if eps_eff < 0.0:
        raise ValueError(f"effective excess noise must be non-negative, got {eps_eff}")
    v_eb = v_mod + 1.0
    corr = math.sqrt(t_eff * (v_eb**2 - 1.0))
    v_b = t_eff * (v_mod + eps_eff) + 1.0
    return np.array(
        [
            [v_eb, 0.0, corr, 0.0],
            [0.0, v_eb, 0.0, -corr],
            [corr, 0.0, v_b, 0.0],
            [0.0, -corr, 0.0, v_b],
        ]
    )


def eb_from_measured(gamma: CovMat4, p: PhysicalParams) -> np.ndarray:
    """Entanglement-based state of the channel output implied by measured data.

    The receiver hardware (beamsplitter ratio, measurement angles, detector
    efficiency) is characterized, so the only freedom left to the
    eavesdropper is the symmetric channel she controls, extended,
    pessimistically, by the detector loss commuted back through the
    beamsplitter.  Its transmittance and excess noise are recovered from
    ``gamma`` with the same estimators used for parameter estimation; the
    returned matrix is the no-switching EB state at those values.

    On a symmetrized matrix the angle estimates vanish, the recovered
    transmittance drops and the conjugate-quadrature signal is counted as
    channel noise, which is precisely how symmetrization feeds the
    eavesdropper.

    Parameters
    ----------
    gamma : CovMat4
        Measured-data covariance (symmetrize first for the conservative
        variant).
    p : PhysicalParams
        Source of the known receiver and modulation quantities
        (eta_d, eta_bs, alpha, v_a).

    Returns
    -------
    ndarray
        4x4 covariance of modes (A, B) before Bob's trusted heterodyne.
    """
    if p.v_mod < 1e-12:
        raise ValueError("no modulation, EB mapping singular")
    eta_hat = estimate_transmission(gamma, p.alpha, p.v_a, p.tau_x, p.tau_p)
    eta_hat = min(max(eta_hat, 1e-12), 1.0)
    eps_hat = estimate_excess_noise(gamma, "conditional", eta_hat, p.tau_x, p.tau_p)
    t_eff = min(eta_hat * p.eta_d, 1.0)
    return no_switching_eb(p.v_mod, t_eff, max(eps_hat, 0.0))


def build_eb_covariance(p: PhysicalParams) -> np.ndarray:
    """Entanglement-based covariance for ground-truth parameters."""
    return eb_from_measured(build_pm_covariance(p), p)
