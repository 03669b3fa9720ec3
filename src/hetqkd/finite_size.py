"""Finite-size analysis: worst-case bounds and key rates.

Two orderings of the post-processing are supported.  Estimating parameters
first (scheme ``K_n``) sacrifices a fraction of the block to parameter
estimation but enables the re-alignment transformation, so the remaining
fraction earns the true-MI rate on worst-case parameters.  Running error
correction first (scheme ``K_N``) keeps every signal for the key but is
stuck with the ignorant MI.  Worst-case parameters use z-sigma Gaussian
confidence bounds (z = 6.5 for a 1e-10 failure probability) around the
estimates, with the estimator variances of :mod:`hetqkd.estimation`
evaluated at each scheme's sample counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .estimation import MAX_ANGLE, EstimationReport, estimator_variances
# Re-exported so ``finite_size.var_transmission_hat``, the name the
# benchmark tracer patches, keeps resolving.
from .estimation import var_transmission_hat  # noqa: F401
from .params import PhysicalParams
from .security import KeyRateReport, KeyRateVariant, asymptotic_key_rate


@dataclass(frozen=True)
class FiniteSizeConfig:
    """Block size, key fraction and confidence configuration.

    ``z`` is the Gaussian confidence multiplier; the default 6.5 matches a
    parameter-estimation failure probability of 1e-10.  ``eps_smooth``
    enters the Delta(n) convergence penalty.
    """

    n_total: float
    frac_key: float = 0.5
    z: float = 6.5
    eps_smooth: float = 1e-10

    def __post_init__(self):
        if self.n_total < 1:
            raise ValueError("n_total must be at least 1")
        if not 0.0 < self.frac_key < 1.0:
            raise ValueError("frac_key must be in (0, 1)")
        if self.z <= 0.0:
            raise ValueError("z must be positive")
        if not 0.0 < self.eps_smooth < 1.0:
            raise ValueError("eps_smooth must be in (0, 1)")


@dataclass(frozen=True)
class WorstCaseParams:
    """Pessimistic channel parameters at the chosen confidence level."""

    eta_low: float
    eps_up: float
    delta_up: float


def delta_n(n: float, eps_smooth: float = 1e-10) -> float:
    """Convergence penalty on the rate from a finite key block of n signals."""
    if n <= 0:
        raise ValueError("n must be positive")
    return 7.0 * math.sqrt(math.log2(2.0 / eps_smooth) / n)


def worst_case(report: EstimationReport, cfg: FiniteSizeConfig) -> WorstCaseParams:
    """Pessimistic bounds at z sigma from the report's estimates and variances."""
    needed = (report.var_eta, report.var_eps, report.var_theta, report.var_phi)
    if any(v is None for v in needed):
        raise ValueError("report carries no variances; estimate with a sample count")
    eta_low = max(report.eta_hat - cfg.z * math.sqrt(report.var_eta), 1e-6)
    eps_up = max(report.eps_hat + cfg.z * math.sqrt(report.var_eps), 0.0)
    delta_up = abs(report.delta_hat) + cfg.z * math.sqrt(
        report.var_theta + report.var_phi
    )
    return WorstCaseParams(eta_low=eta_low, eps_up=eps_up, delta_up=delta_up)


class FiniteScheme(enum.Enum):
    """Ordering of parameter estimation and error correction."""

    PE_BEFORE_EC = "K_n"
    EC_BEFORE_PE = "K_N"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True)
class FiniteKeyReport:
    """Finite-size rate with all its ingredients."""

    scheme: FiniteScheme
    block_size: float
    frac_key: float
    n_key: float
    m_angles: float
    bounds: WorstCaseParams
    penalty: float
    asymptotic: KeyRateReport
    rate: float


def finite_key_rate(
    p: PhysicalParams,
    report: EstimationReport,
    cfg: FiniteSizeConfig,
    scheme: FiniteScheme,
    balance_bs: bool = False,
) -> FiniteKeyReport:
    """Finite-size key rate under the chosen post-processing order.

    ``K_n``: a fraction ``frac_key`` of the block forms the key at the
    worst-case true-MI rate, rate = (n/N) [K_TT(worst case) - Delta(n)].
    The disclosed complement serves the imbalance estimate the
    transformation needs before error correction; channel transmittance
    and noise are still bounded from the full block, which error
    correction reveals.  ``K_N``: all signals serve both purposes,
    rate = K_IT(worst case) - Delta(N).  Point estimates come from
    ``report``; variances are re-evaluated at the scheme's sample counts.
    Where those lie outside the variance formulas' validity (too few
    samples, or an angle rectangle reaching S = 0) the bounds are NaN and,
    as for an imbalance bound beyond 80 degrees, the rate is zero.
    """
    n_total = cfg.n_total
    if scheme is FiniteScheme.PE_BEFORE_EC:
        n_key = cfg.frac_key * n_total
        m_angles = n_total - n_key
        variant = KeyRateVariant.TT
    else:
        n_key = m_angles = n_total
        variant = KeyRateVariant.IT
    penalty = delta_n(n_key, cfg.eps_smooth)

    try:
        variances = estimator_variances(p, report, int(m_angles), int(n_total))
    except ValueError:
        # Too few samples, or angles outside the variance formulas' validity.
        bounds = WorstCaseParams(eta_low=math.nan, eps_up=math.nan, delta_up=math.nan)
    else:
        bounds = worst_case(replace(report, **variances), cfg)
    if bounds.delta_up < MAX_ANGLE:
        p_wc = replace(p, eta=bounds.eta_low, eps=bounds.eps_up,
                       theta=bounds.delta_up, phi=0.0)
        asymptotic = asymptotic_key_rate(p_wc, variant, balance_bs=balance_bs)
    else:
        # Imbalance bound beyond the model's validity, or NaN: no secure key.
        asymptotic = KeyRateReport(variant=variant, mi=0.0, chi=0.0, beta=p.beta, rate=0.0)
    # n_key / n_total is exactly 1.0 for K_N.
    rate = max(0.0, (n_key / n_total) * (asymptotic.rate - penalty))
    return FiniteKeyReport(
        scheme=scheme, block_size=n_total, frac_key=cfg.frac_key,
        n_key=n_key, m_angles=m_angles, bounds=bounds, penalty=penalty,
        asymptotic=asymptotic, rate=rate,
    )


FRACTION_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


def optimize_fraction(
    p: PhysicalParams,
    report: EstimationReport,
    cfg: FiniteSizeConfig,
    balance_bs: bool = False,
) -> tuple[float, FiniteKeyReport]:
    """Grid search of the key fraction maximizing K_n, ties to larger fractions."""
    best: tuple[float, FiniteKeyReport] | None = None
    for frac in FRACTION_GRID:
        cand = finite_key_rate(
            p, report, replace(cfg, frac_key=frac), FiniteScheme.PE_BEFORE_EC,
            balance_bs=balance_bs,
        )
        if best is None or cand.rate >= best[1].rate:
            best = (frac, cand)
    assert best is not None
    return best
