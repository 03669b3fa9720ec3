"""Parameter estimation from frames or covariance matrices, and the
sampling variances of the estimators.

Every estimator is exact on matrices produced by ``build_pm_covariance``
(machine-precision builder round-trip) and consistent on simulated frames.
Angles use the convention in which the builder round-trip is the identity:
the p-quadrature co-variance is negative, and both the ratio estimators and
the cross-check below are signed so that positive (theta, phi) come back
positive.

The variances are the leading 1/m (delta-method) terms at a given sample
count, evaluated at the plug-in parameters (the known receiver values with
the point estimates substituted).  ``estimate_all`` attaches them at the
frame's own sample count; the finite-size layer re-evaluates them at its
schemes' sample counts through the same ``estimator_variances``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace, asdict

import numpy as np

from .gaussian import CovMat4, schur_condition
from .params import PhysicalParams
from .simulator import QuadratureFrame, empirical_covariance

_MIN_SIN_DELTA = 1e-3
#: Largest imbalance angle the variance formulas (and the finite-size
#: rates built on them) accept.
MAX_ANGLE = math.radians(80.0)
#: Half-width, in standard deviations, of the angle confidence rectangle
#: that ``var_transmission_hat`` integrates over.
_Z_ANGLES = 6.5


class NormalizationError(ValueError):
    pass


@dataclass(frozen=True)
class EstimationReport:
    """Point estimates, variances and cross-checks recovered from data.

    ``delta_hat = theta_hat + phi_hat`` always; ``crosscheck_delta`` is the
    independent route through the correlation of Bob's quadratures, signed
    to agree with ``delta_hat`` on model-generated data.  Variances are
    ``None`` when no sample count was available.
    """

    theta_hat: float
    phi_hat: float
    delta_hat: float
    crosscheck_delta: float
    eta_bs_hat: float
    alpha_hat: float
    alpha_consistency: float
    eta_hat: float
    eps_hat: float
    m: int | None = None
    var_theta: float | None = None
    var_phi: float | None = None
    var_delta: float | None = None
    var_eta: float | None = None
    var_eps: float | None = None

    def to_text(self) -> str:
        """Flat key-value record, one field per line."""
        lines = []
        for key, value in asdict(self).items():
            lines.append(f"{key} {'' if value is None else repr(value)}".rstrip())
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "EstimationReport":
        return EstimationReport(**json.loads(text))


def _as_gamma(source: QuadratureFrame | CovMat4) -> CovMat4:
    if isinstance(source, CovMat4):
        return source
    return empirical_covariance(source)


def estimate_imbalance(gamma: CovMat4) -> tuple[float, float, float]:
    """Phase-imbalance angles plus the Bob-Bob cross-check.

    Returns ``(theta_hat, phi_hat, crosscheck_delta)`` where
    ``theta_hat = atan(<p_a x_B> / <x_a x_B>)``,
    ``phi_hat = atan(<x_a p_B> / <p_a p_B>)`` and the cross-check recovers
    theta + phi from ``asin(<x_B p_B> / sqrt((V_B^x - 1)(V_B^p - 1)))``,
    sign-flipped so it matches ``theta_hat + phi_hat`` on model data.
    """
    if gamma.sigma_x == 0.0 or gamma.sigma_p == 0.0:
        raise ValueError("vanishing co-variance, cannot estimate imbalance")
    theta_hat = math.atan(gamma.s_ap_bx / gamma.sigma_x)
    phi_hat = math.atan(gamma.s_ax_bp / gamma.sigma_p)
    ex_x, ex_p = gamma.v_bx - 1.0, gamma.v_bp - 1.0
    if ex_x <= 0.0 or ex_p <= 0.0:
        raise ValueError("Bob variances must exceed shot noise for the cross-check")
    arg = gamma.s_bx_bp / math.sqrt(ex_x * ex_p)
    if abs(arg) > 1.0:
        raise ValueError("inconsistent covariance for cross-check")
    crosscheck = -math.asin(arg)
    return theta_hat, phi_hat, crosscheck


def estimate_eta_bs(gamma: CovMat4) -> float:
    """Beamsplitter transmission from the conditional variance reduction.

    eta_bs = (V_B^x - V_B|A^x) / [(V_B^x - V_B|A^x) + (V_B^p - V_B|A^p)],
    with classically conditioned variances.
    """
    cond = schur_condition(gamma.mat, measured=(0, 1))
    red_x = gamma.v_bx - float(cond[0, 0])
    red_p = gamma.v_bp - float(cond[1, 1])
    den = red_x + red_p
    if den <= 0.0 or red_x < 0.0 or red_p < 0.0:
        raise ValueError("non-positive variance reduction, cannot estimate eta_bs")
    return red_x / den


def estimate_alpha(
    gamma: CovMat4, eta: float, v_a: float, tau_x: float, tau_p: float
) -> tuple[float, float]:
    """Modulation rescaling factor from both quadrature co-variances.

    Returns the average of the x- and p-quadrature quotients and their
    relative difference as a consistency metric (0 on model matrices).
    The p quotient is negated to undo the sign of the p co-variance.
    """
    theta_hat, phi_hat, _ = estimate_imbalance(gamma)
    a_x = gamma.sigma_x / (math.sqrt(eta * tau_x) * math.cos(theta_hat) * v_a)
    a_p = -gamma.sigma_p / (math.sqrt(eta * tau_p) * math.cos(phi_hat) * v_a)
    mean = 0.5 * (a_x + a_p)
    spread = abs(a_x - a_p) / max(abs(mean), 1e-300)
    return mean, spread


def _c_ab(source: QuadratureFrame | CovMat4) -> float:
    """Difference correlator (1/m) sum(x_a x_B - p_a p_B)."""
    if isinstance(source, QuadratureFrame):
        return float(np.mean(source.x_a * source.x_b - source.p_a * source.p_b))
    return source.sigma_x - source.sigma_p


def estimate_transmission(
    source: QuadratureFrame | CovMat4,
    alpha: float,
    v_a: float,
    tau_x: float,
    tau_p: float,
    theta: float | None = None,
    phi: float | None = None,
) -> float:
    """Channel transmittance from the difference correlator.

    T_hat = C_AB^2 / (alpha^2 v_a^2 (sqrt(tau_x) cos(theta)
    + sqrt(tau_p) cos(phi))^2).  Angles default to their own estimates.
    """
    if theta is None or phi is None:
        theta, phi, _ = estimate_imbalance(_as_gamma(source))
    c_ab = _c_ab(source)
    s = math.sqrt(tau_x) * math.cos(theta) + math.sqrt(tau_p) * math.cos(phi)
    return c_ab**2 / (alpha**2 * v_a**2 * s**2)


def estimate_excess_noise(
    source: QuadratureFrame | CovMat4,
    mode: str,
    eta: float,
    tau_x: float,
    tau_p: float,
) -> float:
    """Channel-referred excess noise, by either of two routes.

    ``conditional``: average of (V_B|A - 1) / (eta tau) over the two
    quadratures of the classically conditioned Bob block.  ``crosscorr``:
    from the conditional cross-correlation of Bob's quadratures,
    -V_B|A^{1,2} / (eta sqrt(tau_x tau_p) sin(theta + phi)), which needs a
    resolvable imbalance.
    """
    gamma = _as_gamma(source)
    cond = schur_condition(gamma.mat, measured=(0, 1))
    if mode == "conditional":
        eps_x = (float(cond[0, 0]) - 1.0) / (eta * tau_x)
        eps_p = (float(cond[1, 1]) - 1.0) / (eta * tau_p)
        return 0.5 * (eps_x + eps_p)
    if mode == "crosscorr":
        theta_hat, phi_hat, _ = estimate_imbalance(gamma)
        sin_delta = math.sin(theta_hat + phi_hat)
        if abs(sin_delta) <= _MIN_SIN_DELTA:
            raise ValueError("imbalance too small for cross-correlation route")
        return -float(cond[0, 1]) / (eta * math.sqrt(tau_x * tau_p) * sin_delta)
    raise ValueError(f"unknown excess-noise mode {mode!r}")


def residual_noise_variance(
    frame: QuadratureFrame,
    alpha: float,
    eta: float,
    tau_x: float,
    tau_p: float,
    theta: float,
    phi: float,
) -> float:
    """Channel-noise variance estimator from the summed residuals.

    V_eps_hat = (1/2m) sum (x_B + p_B - E[x_B + p_B | modulation])^2 - 1.
    Its expectation is eta (tau_mean - sqrt(tau_x tau_p) sin(theta + phi))
    times the excess noise; its sampling variance is 2 (t eps + 1)^2 / m.
    """
    st, ct = math.sin(theta), math.cos(theta)
    sf, cf = math.sin(phi), math.cos(phi)
    gain_x = math.sqrt(eta) * alpha * (math.sqrt(tau_x) * ct - math.sqrt(tau_p) * sf)
    gain_p = math.sqrt(eta) * alpha * (math.sqrt(tau_x) * st - math.sqrt(tau_p) * cf)
    resid = frame.x_b + frame.p_b - gain_x * frame.x_a - gain_p * frame.p_a
    return 0.5 * float(np.mean(resid**2)) - 1.0


def _var_arm_angle(p: PhysicalParams, angle: float, tau: float, m: int) -> float:
    """Sampling variance of one arm's imbalance estimator.

    Leading 1/m term of the ratio estimator, <p_a x_B> / <x_a x_B> for the
    x arm: Var[p_a x_B] / (m eta tau v_a^2 alpha^2 cos^2 angle), with the
    Gaussian product moment Var[p_a x_B] = v_a V_B + <p_a x_B>^2 evaluated
    exactly.  This is the delta-method variance; Monte Carlo over
    independent frames reproduces it within sampling error.
    """
    if m < 1000:
        raise ValueError("variance formula requires m >= 1000")
    if abs(angle) > MAX_ANGLE:
        raise ValueError("imbalance too close to pi/2, variance diverges")
    v_b = 1.0 + p.eta * tau * (p.v_mod + p.eps)
    corr = math.sqrt(p.eta * tau) * math.sin(angle) * p.v_a * p.alpha
    var_prod = p.v_a * v_b + corr**2
    return var_prod / (m * p.eta * tau * p.v_a**2 * p.alpha**2 * math.cos(angle) ** 2)


def var_theta_hat(p: PhysicalParams, m: int) -> float:
    """Sampling variance of the x-quadrature imbalance estimator theta_hat."""
    return _var_arm_angle(p, p.theta, p.tau_x, m)


def var_phi_hat(p: PhysicalParams, m: int) -> float:
    """Sampling variance of the p-quadrature imbalance estimator phi_hat."""
    return _var_arm_angle(p, p.phi, p.tau_p, m)


def _legendre_and_derivative(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, elementwise."""
    p_prev, p_n = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p_n = p_n, ((2 * j - 1) * x * p_n - (j - 1) * p_prev) / j
    return p_n, n * (x * p_n - p_prev) / ((x - 1.0) * (x + 1.0))


@functools.lru_cache(maxsize=None)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], cached per n.

    Newton's method on P_n from the usual cosine initial guesses, in
    elementwise arithmetic; the weights 2 / ((1 - x^2) P_n'(x)^2) are taken
    at the converged nodes, and both are mirrored, so the rule is exactly
    symmetric.  numpy's ``leggauss`` starts from LAPACK eigenvalues instead,
    which ties its last bits to the BLAS kernel.  The returned arrays are
    shared, hence read-only.
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs at least one node")
    # Non-positive half of the nodes, ascending; the rest is its mirror.
    x = np.array([-math.cos(math.pi * (k + 0.75) / (n + 0.5)) for k in range((n + 1) // 2)])
    for _ in range(100):
        p_n, deriv = _legendre_and_derivative(x, n)
        step = p_n / deriv
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    if n % 2:
        x[-1] = 0.0
    _, deriv = _legendre_and_derivative(x, n)
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * deriv * deriv)
    nodes = np.concatenate([x, -x[: n // 2][::-1]])
    w = np.concatenate([weights, weights[: n // 2][::-1]])
    nodes.flags.writeable = False
    w.flags.writeable = False
    return nodes, w


def _gauss_legendre_variance(
    func,
    mu_t: float,
    sd_t: float,
    bounds_t: tuple[float, float],
    mu_f: float,
    sd_f: float,
    bounds_f: tuple[float, float],
    nodes: int,
) -> float:
    """Variance of func under a truncated bivariate Gaussian weight.

    Central-moment (two-pass) evaluation: the raw second moment would lose
    ~9 digits to cancellation because the integrand varies by parts per
    thousand over the confidence rectangle.
    """
    xt, wt = legendre_rule(nodes)
    lo_t, hi_t = bounds_t
    lo_f, hi_f = bounds_f
    t = 0.5 * (hi_t - lo_t) * xt + 0.5 * (hi_t + lo_t)
    w_t = 0.5 * (hi_t - lo_t) * wt
    f = 0.5 * (hi_f - lo_f) * xt + 0.5 * (hi_f + lo_f)
    w_f = 0.5 * (hi_f - lo_f) * wt

    pdf_t = np.exp(-0.5 * ((t - mu_t) / sd_t) ** 2) / (math.sqrt(2 * math.pi) * sd_t)
    pdf_f = np.exp(-0.5 * ((f - mu_f) / sd_f) ** 2) / (math.sqrt(2 * math.pi) * sd_f)
    vals = func(t[:, None], f[None, :])
    weights = (w_t * pdf_t)[:, None] * (w_f * pdf_f)[None, :]
    mass = float(np.sum(weights))
    mean = float(np.sum(weights * vals)) / mass
    return float(np.sum(weights * (vals - mean) ** 2)) / mass


@functools.lru_cache
def var_transmission_hat(
    p: PhysicalParams,
    m: int,
    theta_bounds: tuple[float, float] | None = None,
    phi_bounds: tuple[float, float] | None = None,
    nodes: int = 64,
) -> float:
    """Sampling variance of the transmission estimator.

    First term: propagated variance of the difference correlator,
    4 eta Var[C_AB] / (alpha^2 v_a^2 S^2) with
    S = sqrt(tau_x) cos(theta) + sqrt(tau_p) cos(phi).  Second term:
    eta^2 S^4 Var[1/S^2] under the Gaussian uncertainty of the angle
    estimates, integrated by 2-D Gauss-Legendre quadrature over the angle
    confidence rectangle (+-6.5 sigma unless bounds are given).  Zero-width
    bounds give a deterministic-angle second term of zero.  Cached: the
    finite-size key-fraction search asks for the same channel variance once
    per fraction.

    Raises
    ------
    ValueError
        If the angle rectangle reaches S = 0, where 1/S^2 is unbounded.
    RuntimeError
        If doubling the node count changes the quadrature by more than
        1e-6 relative.
    """
    ct, cf = math.cos(p.theta), math.cos(p.phi)
    rtx, rtp = math.sqrt(p.tau_x), math.sqrt(p.tau_p)
    s_angles = rtx * ct + rtp * cf

    v_bx = 1.0 + p.eta * p.tau_x * (p.v_mod + p.eps)
    v_bp = 1.0 + p.eta * p.tau_p * (p.v_mod + p.eps)
    sigma_x = math.sqrt(p.eta * p.tau_x) * ct * p.v_a * p.alpha
    sigma_p = -math.sqrt(p.eta * p.tau_p) * cf * p.v_a * p.alpha
    var_c = (p.v_a * v_bx + sigma_x**2 + p.v_a * v_bp + sigma_p**2) / m
    term1 = 4.0 * p.eta * var_c / (p.alpha**2 * p.v_a**2 * s_angles**2)

    sd_t = math.sqrt(var_theta_hat(p, m))
    sd_f = math.sqrt(var_phi_hat(p, m))
    if theta_bounds is None:
        theta_bounds = (p.theta - _Z_ANGLES * sd_t, p.theta + _Z_ANGLES * sd_t)
    if phi_bounds is None:
        phi_bounds = (p.phi - _Z_ANGLES * sd_f, p.phi + _Z_ANGLES * sd_f)

    degenerate = (
        theta_bounds[1] <= theta_bounds[0]
        or phi_bounds[1] <= phi_bounds[0]
        or sd_t == 0.0
        or sd_f == 0.0
    )
    if degenerate:
        return term1
    # S is smallest at the corner of largest |t| and |f| (cos falls on [0, pi]).
    t_far = min(max(abs(theta_bounds[0]), abs(theta_bounds[1])), math.pi)
    f_far = min(max(abs(phi_bounds[0]), abs(phi_bounds[1])), math.pi)
    if rtx * math.cos(t_far) + rtp * math.cos(f_far) <= 0.0:
        raise ValueError("angle confidence rectangle reaches S = 0: "
                         "transmission variance unbounded")

    def inv_s2(t, f):
        return 1.0 / (rtx * np.cos(t) + rtp * np.cos(f)) ** 2

    def var_quad(n: int) -> float:
        return _gauss_legendre_variance(
            inv_s2, p.theta, sd_t, theta_bounds, p.phi, sd_f, phi_bounds, n
        )

    v_coarse = var_quad(nodes)
    v_fine = var_quad(2 * nodes)
    scale = max(abs(v_fine), 1e-300)
    if abs(v_fine - v_coarse) / scale > 1e-6 and abs(v_fine) > 1e-30:
        raise RuntimeError(
            f"quadrature did not converge: {v_coarse:.9g} vs {v_fine:.9g}"
        )
    term2 = p.eta**2 * s_angles**4 * max(v_fine, 0.0)
    return term1 + term2


def var_noise_hat(t_eps: float, m: int) -> float:
    """Sampling variance of the channel-noise estimator, 2 (t eps + 1)^2 / m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 2.0 * (t_eps + 1.0) ** 2 / m


def estimator_variances(
    known: PhysicalParams, report: EstimationReport, m_angles: int, m_channel: int
) -> dict[str, float]:
    """Variances of the report's estimators, as ``EstimationReport`` fields.

    Evaluated at the plug-in parameters: ``known`` with the report's point
    estimates, the transmittance clipped to (0, 1] and the noise to >= 0.
    The imbalance is estimated on ``m_angles`` signals, the transmittance
    and noise on ``m_channel``; the finite-size ``K_n`` scheme needs the
    two apart.  The noise variance enters in the raw normalization of the
    residual estimator, following the adopted convention.
    """
    p_hat = replace(
        known,
        eta=min(max(report.eta_hat, 1e-9), 1.0),
        eps=max(report.eps_hat, 0.0),
        theta=report.theta_hat,
        phi=report.phi_hat,
    )
    v_t = var_theta_hat(p_hat, m_angles)
    v_f = var_phi_hat(p_hat, m_angles)
    return {
        "var_theta": v_t,
        "var_phi": v_f,
        "var_delta": v_t + v_f,
        "var_eta": var_transmission_hat(p_hat, m_channel),
        "var_eps": var_noise_hat(p_hat.eta * p_hat.eps, m_channel),
    }


def estimate_all(
    source: QuadratureFrame | CovMat4,
    known: PhysicalParams,
    m: int | None = None,
) -> EstimationReport:
    """Full estimation chain using the trusted receiver/modulation values.

    Only the known-by-construction fields of ``known`` are read (eta_d,
    eta_bs, alpha, v_a); channel transmittance, excess noise and the
    imbalance angles are estimated from the data.  Variances of the
    estimators are attached when a sample count is available (taken from
    the frame, or passed explicitly for a covariance input).
    """
    gamma = _as_gamma(source)
    if m is None and isinstance(source, QuadratureFrame):
        m = source.m
    tau_x, tau_p = known.tau_x, known.tau_p

    theta_hat, phi_hat, crosscheck = estimate_imbalance(gamma)
    eta_bs_hat = estimate_eta_bs(gamma)
    eta_hat = estimate_transmission(
        source, known.alpha, known.v_a, tau_x, tau_p, theta_hat, phi_hat
    )
    eps_hat = estimate_excess_noise(gamma, "conditional", eta_hat, tau_x, tau_p)
    alpha_hat, alpha_consistency = estimate_alpha(
        gamma, eta_hat, known.v_a, tau_x, tau_p
    )
    report = EstimationReport(
        theta_hat=theta_hat,
        phi_hat=phi_hat,
        delta_hat=theta_hat + phi_hat,
        crosscheck_delta=crosscheck,
        eta_bs_hat=eta_bs_hat,
        alpha_hat=alpha_hat,
        alpha_consistency=alpha_consistency,
        eta_hat=eta_hat,
        eps_hat=eps_hat,
        m=m,
    )
    if m is None:
        return report
    return replace(report, **estimator_variances(known, report, m, m))


def shot_noise_normalize(
    frame: QuadratureFrame,
    v_elec: float,
    theta: float,
    phi: float,
    tau_x: float,
    tau_p: float,
) -> tuple[QuadratureFrame, float, float]:
    """Normalize Bob's columns to shot-noise units via the imbalance itself.

    The cross-correlation of Bob's quadratures carries the signal-plus-noise
    power scaled by sin(theta + phi); subtracting it (and the electronic
    noise) from each measured variance leaves the shot-noise level

        V_N^x = V_B^x - eta tau_x (signal + noise) - V_elec,

    estimated as V_B^x + sqrt(tau_x / tau_p) sigma_BB / sin(theta + phi)
    - V_elec.  Bob's columns are divided by sqrt(V_N).  Requires a
    resolvable imbalance.
    """
    sin_delta = math.sin(theta + phi)
    if abs(sin_delta) <= _MIN_SIN_DELTA:
        raise NormalizationError("imbalance too small for shot-noise normalization")
    gamma = empirical_covariance(frame)
    power_x = -math.sqrt(tau_x / tau_p) * gamma.s_bx_bp / sin_delta
    power_p = -math.sqrt(tau_p / tau_x) * gamma.s_bx_bp / sin_delta
    v_n_x = gamma.v_bx - power_x - v_elec
    v_n_p = gamma.v_bp - power_p - v_elec
    if v_n_x <= 0.0 or v_n_p <= 0.0:
        raise NormalizationError(
            f"normalization failed: non-positive shot noise ({v_n_x:.6g}, {v_n_p:.6g})"
        )
    meta = replace(frame.meta, in_snu=True)
    normalized = QuadratureFrame(
        x_a=frame.x_a.copy(),
        p_a=frame.p_a.copy(),
        x_b=frame.x_b / math.sqrt(v_n_x),
        p_b=frame.p_b / math.sqrt(v_n_p),
        meta=meta,
        transformed=frame.transformed,
    )
    return normalized, v_n_x, v_n_p
