import math
from dataclasses import replace

import numpy as np
import pytest

from hetqkd import (
    FiniteScheme,
    FiniteSizeConfig,
    KeyRateVariant,
    SimConfig,
    asymptotic_key_rate,
    build_pm_covariance,
    delta_n,
    empirical_covariance,
    estimate_all,
    estimate_imbalance,
    estimate_transmission,
    finite_key_rate,
    generate_frame,
    optimize_fraction,
    var_noise_hat,
    var_phi_hat,
    var_theta_hat,
    var_transmission_hat,
    worst_case,
)
from hetqkd.estimation import legendre_rule


class TestVarianceFormulas:
    def test_one_over_m_scaling(self, lab_link):
        m = 40_000
        for func in (var_theta_hat, var_phi_hat):
            assert func(lab_link, 2 * m) == pytest.approx(
                func(lab_link, m) / 2.0, rel=1e-12
            )
        assert var_noise_hat(0.01, 2 * m) == pytest.approx(
            var_noise_hat(0.01, m) / 2.0, rel=1e-12
        )
        ratio = var_transmission_hat(lab_link, 10 * m) / var_transmission_hat(
            lab_link, m
        )
        assert ratio == pytest.approx(0.1, rel=0.05)

    def test_angle_guard(self, lab_link):
        steep = replace(lab_link, theta=math.radians(81.0))
        with pytest.raises(ValueError, match="diverges"):
            var_theta_hat(steep, 10_000)
        with pytest.raises(ValueError, match="m >= 1000"):
            var_theta_hat(lab_link, 100)
        # The angle rectangle reaches sqrt(tau_x) cos t + sqrt(tau_p) cos f = 0.
        both_steep = replace(lab_link, theta=math.radians(75.0), phi=math.radians(75.0))
        with pytest.raises(ValueError, match="S = 0"):
            var_transmission_hat(both_steep, 20_000)

    def test_noise_variance_examples(self):
        assert var_noise_hat(0.0, 10**6) == pytest.approx(2e-6, rel=1e-12)
        assert var_noise_hat(0.005 * 0.4467, 10**6) == pytest.approx(
            2.0089439770445e-06, rel=1e-12
        )

    def test_transmission_variance_structure(self, lab_link):
        p0 = replace(lab_link, theta=0.0, phi=0.0)
        m = 50_000
        # Deterministic angles: second term collapses to the propagated
        # correlator variance alone.
        term1_only = var_transmission_hat(p0, m, theta_bounds=(0.0, 0.0),
                                          phi_bounds=(0.0, 0.0))
        v_bx = 1.0 + p0.eta * p0.tau_x * (p0.v_mod + p0.eps)
        v_bp = 1.0 + p0.eta * p0.tau_p * (p0.v_mod + p0.eps)
        sig_x = math.sqrt(p0.eta * p0.tau_x) * p0.v_a
        sig_p = math.sqrt(p0.eta * p0.tau_p) * p0.v_a
        var_c = (p0.v_a * v_bx + sig_x**2 + p0.v_a * v_bp + sig_p**2) / m
        s = math.sqrt(p0.tau_x) + math.sqrt(p0.tau_p)
        want = 4.0 * p0.eta * var_c / (p0.v_a**2 * s**2)
        assert term1_only == pytest.approx(want, rel=1e-12)
        assert var_transmission_hat(p0, m) >= term1_only

    def test_quadrature_node_convergence(self, lab_link):
        v64 = var_transmission_hat(lab_link, 100_000, nodes=64)
        v128 = var_transmission_hat(lab_link, 100_000, nodes=128)
        assert abs(v64 - v128) <= 1e-6 * abs(v128)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 128])
    def test_legendre_rule(self, n):
        # Exact for polynomials of degree 2n - 1, symmetric, and the same
        # nodes as numpy's eigenvalue-based rule.
        x, w = legendre_rule(n)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in (0, 2 * n - 2):
            assert np.sum(w * x**k) == pytest.approx(2.0 / (k + 1), rel=1e-13)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        assert np.allclose(x, want_x, rtol=0.0, atol=1e-15)
        assert np.allclose(w, want_w, rtol=1e-10, atol=0.0)

    def test_monte_carlo_factor(self, lab_link):
        # Empirical estimator variances over independent frames against the
        # formulas; the acceptance suite repeats this at full scale.
        p = replace(lab_link, theta=math.radians(5.0))
        m, n_frames = 100_000, 60
        thetas, etas = [], []
        for seed in range(n_frames):
            frame = generate_frame(SimConfig(params=p, m=m, seed=seed), 0)
            gamma = empirical_covariance(frame)
            theta_hat, phi_hat, _ = estimate_imbalance(gamma)
            thetas.append(theta_hat)
            etas.append(
                estimate_transmission(frame, p.alpha, p.v_a, p.tau_x, p.tau_p,
                                      theta_hat, phi_hat)
            )
        assert 1 / 1.5 < np.var(thetas, ddof=1) / var_theta_hat(p, m) < 1.5
        assert 1 / 1.5 < np.var(etas, ddof=1) / var_transmission_hat(p, m) < 1.5


class TestDeltaN:
    def test_reference_value(self):
        assert delta_n(1e8) == pytest.approx(4.0948e-3, rel=1e-4)

    def test_monotone_and_vanishing(self):
        assert delta_n(1e6) > delta_n(1e7) > delta_n(1e8)
        assert delta_n(1e18) < 1e-7

    def test_positive_block_required(self):
        with pytest.raises(ValueError):
            delta_n(0)


class TestWorstCase:
    def _report(self, **kw):
        base = dict(
            theta_hat=math.radians(10.0), phi_hat=0.0,
            delta_hat=math.radians(10.0), crosscheck_delta=math.radians(10.0),
            eta_bs_hat=0.5, alpha_hat=1.0, alpha_consistency=0.0,
            eta_hat=0.4467, eps_hat=0.005, m=10**6,
            var_theta=0.0, var_phi=0.0, var_delta=0.0, var_eta=0.0, var_eps=0.0,
        )
        base.update(kw)
        from hetqkd import EstimationReport

        return EstimationReport(**base)

    def test_zero_variance_keeps_point_estimates(self):
        cfg = FiniteSizeConfig(n_total=1e8)
        bounds = worst_case(self._report(), cfg)
        assert bounds.eta_low == pytest.approx(0.4467)
        assert bounds.eps_up == pytest.approx(0.005)
        assert bounds.delta_up == pytest.approx(math.radians(10.0))

    def test_spec_point_values(self):
        cfg = FiniteSizeConfig(n_total=1e8, z=6.5)
        bounds = worst_case(self._report(var_eps=2e-6), cfg)
        assert bounds.eps_up == pytest.approx(0.014192388155425117, rel=1e-9)

    def test_clamps(self):
        cfg = FiniteSizeConfig(n_total=1e8, z=6.5)
        bounds = worst_case(self._report(eta_hat=1e-9, var_eta=1.0,
                                         eps_hat=-0.5, var_eps=0.0), cfg)
        assert bounds.eta_low == 1e-6
        assert bounds.eps_up == 0.0

    def test_missing_variances_rejected(self):
        cfg = FiniteSizeConfig(n_total=1e8)
        with pytest.raises(ValueError, match="variances"):
            worst_case(self._report(var_eta=None), cfg)

    def test_coverage_at_three_sigma(self, lab_link):
        # Transmittance and imbalance bounds are statistically calibrated;
        # the noise bound is checked in its native (detector-referred)
        # normalization where the printed variance applies.
        from hetqkd import residual_noise_variance

        m, trials = 5_000, 2_000
        z = 3.0
        miss_eta = miss_delta = miss_noise = 0
        sd_theta = math.sqrt(var_theta_hat(lab_link, m))
        sd_phi = math.sqrt(var_phi_hat(lab_link, m))
        sd_eta = math.sqrt(var_transmission_hat(lab_link, m))
        t_eps = lab_link.eta * 0.5 * (lab_link.tau_x + lab_link.tau_p) * lab_link.eps
        tau_g = math.sqrt(lab_link.tau_x * lab_link.tau_p)
        v_eps_true = lab_link.eta * lab_link.eps * (
            0.5 * (lab_link.tau_x + lab_link.tau_p)
            - tau_g * math.sin(lab_link.delta)
        )
        sd_noise = math.sqrt(var_noise_hat(t_eps, m))
        for seed in range(trials):
            frame = generate_frame(SimConfig(params=lab_link, m=m, seed=seed), 0)
            gamma = empirical_covariance(frame)
            theta_hat, phi_hat, _ = estimate_imbalance(gamma)
            eta_hat = estimate_transmission(
                frame, lab_link.alpha, lab_link.v_a,
                lab_link.tau_x, lab_link.tau_p, theta_hat, phi_hat,
            )
            noise_hat = residual_noise_variance(
                frame, lab_link.alpha, lab_link.eta,
                lab_link.tau_x, lab_link.tau_p,
                lab_link.theta, lab_link.phi,
            )
            miss_eta += not (eta_hat - z * sd_eta <= lab_link.eta)
            delta_hat = theta_hat + phi_hat
            miss_delta += not (
                abs(delta_hat) + z * math.hypot(sd_theta, sd_phi) >= lab_link.delta
            )
            miss_noise += not (noise_hat + z * sd_noise >= v_eps_true)
        for misses in (miss_eta, miss_delta, miss_noise):
            assert misses <= (1 - 0.99) * trials


class TestFiniteKeyRate:
    def test_asymptotic_limit(self, lab_link):
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        cfg = FiniteSizeConfig(n_total=1e14, frac_key=0.9999)
        out = finite_key_rate(lab_link, report, cfg, FiniteScheme.PE_BEFORE_EC)
        want = asymptotic_key_rate(lab_link, KeyRateVariant.TT).rate
        assert out.rate == pytest.approx(want, rel=1e-3)

    def test_rates_increase_with_block_size(self, lab_link):
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        for scheme in FiniteScheme:
            rates = [
                finite_key_rate(
                    lab_link, report, FiniteSizeConfig(n_total=n), scheme
                ).rate
                for n in (1e6, 1e7, 1e8)
            ]
            assert rates[0] < rates[1] < rates[2]

    def test_experimental_point_ordering(self, lab_link):
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        frac, kn = optimize_fraction(lab_link, report, FiniteSizeConfig(n_total=1e8))
        kbig = finite_key_rate(
            lab_link, report, FiniteSizeConfig(n_total=1e8), FiniteScheme.EC_BEFORE_PE
        )
        assert kn.rate > kbig.rate
        small_frac, kn_small = optimize_fraction(
            lab_link, report, FiniteSizeConfig(n_total=1e6)
        )
        kbig_small = finite_key_rate(
            lab_link, report, FiniteSizeConfig(n_total=1e6), FiniteScheme.EC_BEFORE_PE
        )
        # At short distance / small N the EC-first route can win.
        short = replace(lab_link, eta=10 ** -0.1)
        report_short = estimate_all(build_pm_covariance(short), short)
        _, kn_short = optimize_fraction(short, report_short, FiniteSizeConfig(n_total=1e8))
        kbig_short = finite_key_rate(
            short, report_short, FiniteSizeConfig(n_total=1e8), FiniteScheme.EC_BEFORE_PE
        )
        assert kbig_short.rate > kn_short.rate

    def test_worst_case_monotonicity(self, lab_link):
        base = replace(lab_link, theta=math.radians(10.0), phi=0.0)
        rate = lambda p: asymptotic_key_rate(p, KeyRateVariant.TT).rate
        r0 = rate(base)
        assert rate(replace(base, eps=base.eps + 0.01)) <= r0
        assert rate(replace(base, theta=base.theta + math.radians(3))) <= r0
        assert rate(replace(base, eta=base.eta * 0.9)) <= r0

    def test_finite_rates_monotone_in_bounds(self, lab_link):
        # Worsening any single point estimate can only lower the key.
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        cfg = FiniteSizeConfig(n_total=1e8)
        for scheme in FiniteScheme:
            base = finite_key_rate(lab_link, report, cfg, scheme).rate
            worse_eps = replace(report, eps_hat=report.eps_hat + 0.01)
            worse_delta = replace(report, theta_hat=report.theta_hat + 0.05,
                                  delta_hat=report.delta_hat + 0.05)
            worse_eta = replace(report, eta_hat=report.eta_hat * 0.9)
            assert finite_key_rate(lab_link, worse_eps, cfg, scheme).rate <= base
            assert finite_key_rate(lab_link, worse_delta, cfg, scheme).rate <= base
            assert finite_key_rate(lab_link, worse_eta, cfg, scheme).rate <= base

    def test_balance_bs_option(self, lab_link):
        lopsided = replace(lab_link, eta_bs=0.58)
        report = estimate_all(build_pm_covariance(lopsided), lopsided)
        cfg = FiniteSizeConfig(n_total=1e8)
        balanced = finite_key_rate(
            lopsided, report, cfg, FiniteScheme.PE_BEFORE_EC, balance_bs=True
        )
        manual_p = replace(lopsided, eta_bs=0.5)
        want = asymptotic_key_rate(
            replace(
                manual_p,
                eta=balanced.bounds.eta_low,
                eps=balanced.bounds.eps_up,
                theta=balanced.bounds.delta_up,
                phi=0.0,
            ),
            KeyRateVariant.TT,
        )
        assert balanced.asymptotic.rate == pytest.approx(want.rate, abs=1e-12)

    def test_rate_never_negative(self, lab_link):
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        for n in (1e6, 3e6):
            for frac in (0.05, 0.5, 0.95):
                for scheme in FiniteScheme:
                    out = finite_key_rate(
                        lab_link, report,
                        FiniteSizeConfig(n_total=n, frac_key=frac), scheme,
                    )
                    assert out.rate >= 0.0

    def test_optimizer_beats_default_fraction(self, lab_link):
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        cfg = FiniteSizeConfig(n_total=1e7)
        frac, best = optimize_fraction(lab_link, report, cfg)
        half = finite_key_rate(
            lab_link, report, replace(cfg, frac_key=0.5), FiniteScheme.PE_BEFORE_EC
        )
        assert best.rate >= half.rate
        assert frac in {round(0.05 * k, 2) for k in range(1, 20)}

    def test_optimum_fraction_grows_with_block(self, lab_link):
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        frac_large, _ = optimize_fraction(
            lab_link, report, FiniteSizeConfig(n_total=1e12)
        )
        assert frac_large == 0.95

    def test_golden_fraction_small_block(self, lab_link):
        report = estimate_all(build_pm_covariance(lab_link), lab_link)
        frac, best = optimize_fraction(lab_link, report, FiniteSizeConfig(n_total=1e6))
        assert frac == 0.95
        assert best.rate == pytest.approx(0.12416528177337759, rel=1e-9)
