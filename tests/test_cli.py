import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hetqkd
from hetqkd.cli import main, read_csv

# First 16 hex digits of the SHA-256 of each golden artifact; regenerate by
# rerunning the corresponding command after any intentional output change.
# Re-pin only while TestCrossKernelBytes passes (outputs must not depend on
# the BLAS kernel, or the new digest is just one kernel's rounding), and
# record the old and new digests and the reason in CHANGES.md.
GOLDEN = {
    "keyrate": "1351f34b0537fb23",
    "tolerance": "59c9fd69f3e6b026",
    "finite": "a77f4db60793fee5",
    "sim_keyrates": "e34527948ef488f9",
    "sim_report": "09a819e3aef1296a",
}

KEYRATE_CONFIG = {
    "params": {"eta_d": 0.85, "v_a": 3.3, "beta": 0.95, "eps": 0.005, "phi_deg": 0.0},
    "eta_grid": {"start": 0.2, "stop": 1.0, "num": 3},
    "eps_grid": [0.0, 0.02],
    "theta_deg_values": [0.0, 10.0],
}
TOLERANCE_CONFIG = {
    "params": {"eta_d": 0.85, "v_a": 3.3, "beta": 0.95},
    "eta_grid": [0.3, 0.7],
    "theta_deg_values": [0.0, 30.0],
    "variants": ["TT", "II"],
}
FINITE_CONFIG = {"losses_db": [3.5], "block_sizes": [1e6, 1e8]}
SIMULATE_CONFIG = {
    "params": {
        "eta": 0.4467, "eps": 0.005, "theta_deg": 10.0, "phi_deg": 0.0,
        "eta_d": 0.85, "eta_bs": 0.5, "alpha": 1.0, "v_a": 3.3, "beta": 0.95,
    },
    "m": 20000,
    "frames": 1,
    "block_sizes": [1e8],
}


def run(tmp_path, command, config, out, *extra, seed=None):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(config))
    args = [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    args += list(extra)
    return main(args)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestKeyrateCommand:
    def test_zero_imbalance_rows_collapse(self, tmp_path):
        assert run(tmp_path, "keyrate", KEYRATE_CONFIG, "out") == 0
        header, rows = read_csv(str(tmp_path / "out" / "keyrate.csv"), "keyrate")
        assert header == ["variant", "eta", "eps", "theta_deg", "phi_deg",
                          "mi", "chi", "rate"]
        by_point = {}
        for row in rows:
            if float(row[3]) == 0.0:
                by_point.setdefault((row[1], row[2]), []).append(float(row[7]))
        for rates in by_point.values():
            assert len(rates) == 4
            assert max(rates) - min(rates) < 1e-9

    def test_golden_and_deterministic(self, tmp_path):
        run(tmp_path, "keyrate", KEYRATE_CONFIG, "a")
        run(tmp_path, "keyrate", KEYRATE_CONFIG, "b")
        a = tmp_path / "a" / "keyrate.csv"
        b = tmp_path / "b" / "keyrate.csv"
        assert a.read_bytes() == b.read_bytes()
        assert digest(a) == GOLDEN["keyrate"]


class TestToleranceCommand:
    def test_broken_variant_reports_zero(self, tmp_path):
        assert run(tmp_path, "tolerance", TOLERANCE_CONFIG, "out") == 0
        _, rows = read_csv(str(tmp_path / "out" / "tolerance.csv"), "tolerance")
        k_ii_30 = [float(r[3]) for r in rows if r[0] == "K_II" and float(r[1]) == 30.0]
        k_tt_30 = [float(r[3]) for r in rows if r[0] == "K_TT" and float(r[1]) == 30.0]
        assert all(v == 0.0 for v in k_ii_30)
        assert all(v > 0.0 for v in k_tt_30)
        zero_rows = {}
        for row in rows:
            if float(row[1]) == 0.0:
                zero_rows.setdefault(row[2], []).append(float(row[3]))
        for values in zero_rows.values():
            assert max(values) - min(values) < 2e-6

    def test_golden(self, tmp_path):
        run(tmp_path, "tolerance", TOLERANCE_CONFIG, "out")
        assert digest(tmp_path / "out" / "tolerance.csv") == GOLDEN["tolerance"]


class TestFiniteCommand:
    def test_loss_mapping_and_block_ordering(self, tmp_path):
        assert run(tmp_path, "finite", FINITE_CONFIG, "out") == 0
        _, rows = read_csv(str(tmp_path / "out" / "finite.csv"), "finite")
        # 3.5 dB maps back to 17.5 km at 0.2 dB/km.
        assert {float(r[0]) for r in rows} == {17.5}
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row[3], {})[float(row[2])] = float(row[5])
        for scheme, rates in by_scheme.items():
            assert rates[1e8] > rates[1e6]
        assert by_scheme["K_n"][1e8] > by_scheme["K_N"][1e8]

    def test_distance_grid_uses_fiber_map(self, tmp_path):
        config = {"distances_km": [17.0], "block_sizes": [1e8]}
        run(tmp_path, "finite", config, "out")
        _, rows = read_csv(str(tmp_path / "out" / "finite.csv"), "finite")
        assert float(rows[0][1]) == pytest.approx(3.4)

    def test_balance_bs_flattens_lopsided_splitter(self, tmp_path):
        base = {
            "params": {"eta_bs": 0.58, "theta_deg": 10.0},
            "losses_db": [3.5],
            "block_sizes": [1e8],
        }
        run(tmp_path, "finite", base, "raw")
        run(tmp_path, "finite", {**base, "balance_bs": True}, "bal")
        _, raw_rows = read_csv(str(tmp_path / "raw" / "finite.csv"), "finite")
        _, bal_rows = read_csv(str(tmp_path / "bal" / "finite.csv"), "finite")
        raw_rate = float(raw_rows[0][5])
        bal_rate = float(bal_rows[0][5])
        assert raw_rate != bal_rate
        assert bal_rate > 0.0

    @pytest.mark.parametrize("overrides", [
        # K_n at key fraction 0.95 leaves 500 signals for the angle estimate.
        ["losses_db=[3.0]", "block_sizes=[1e4]"],
        # The angle rectangle crosses sqrt(tau_x) cos t + sqrt(tau_p) cos f = 0.
        ["theta_deg=75", "phi_deg=75", "losses_db=[3.0]", "block_sizes=[2e4]"],
    ])
    def test_outside_variance_validity_gives_zero_rate(self, tmp_path, overrides):
        argv = ["finite", "--out", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        _, rows = read_csv(str(tmp_path / "out" / "finite.csv"), "finite")
        assert [r[3] for r in rows] == ["K_n", "K_N"]
        assert all(float(r[5]) == 0.0 for r in rows)

    def test_golden(self, tmp_path):
        run(tmp_path, "finite", FINITE_CONFIG, "out")
        assert digest(tmp_path / "out" / "finite.csv") == GOLDEN["finite"]


class TestSimulateCommand:
    def test_pipeline_outputs(self, tmp_path):
        assert run(tmp_path, "simulate", SIMULATE_CONFIG, "out", seed=7) == 0
        out = tmp_path / "out"
        assert (out / "frames" / "frame_0000.csv").exists()
        assert (out / "estimation_report.json").exists()
        report = json.loads((out / "estimation_report.json").read_text())
        # Estimates must sit within their own 6.5 sigma bands.
        assert abs(report["theta_hat"] - math.radians(10.0)) < 6.5 * math.sqrt(
            report["var_theta"]
        )
        assert abs(report["eta_hat"] - 0.4467) < 6.5 * math.sqrt(report["var_eta"])
        _, mi_rows = read_csv(str(out / "mi_recovery.csv"), "mi_recovery")
        mi = {row[0]: float(row[1]) for row in mi_rows}
        assert mi["ignorant_mi_after_transform"] > mi["ignorant_mi_before"]

    def test_golden_and_deterministic(self, tmp_path):
        run(tmp_path, "simulate", SIMULATE_CONFIG, "a", seed=7)
        run(tmp_path, "simulate", SIMULATE_CONFIG, "b", seed=7)
        for name in ("keyrates.csv", "estimation_report.json", "mi_recovery.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert digest(tmp_path / "a" / "keyrates.csv") == GOLDEN["sim_keyrates"]
        assert digest(tmp_path / "a" / "estimation_report.json") == GOLDEN["sim_report"]


class TestSimulateExperimentConditions:
    def test_transform_scheme_beats_plain_scheme(self, tmp_path):
        # Full-size frame at experiment-like conditions, 5 dB loss: the
        # transformation-enabled K_n must beat the plain K_N at N = 1e8.
        # (At 3.5 dB the two schemes differ by less than the single-frame
        # estimation noise; the analytic route covers that point.)
        config = {
            "params": {
                "eta": 10 ** -0.5, "eps": 0.005, "theta_deg": 10.0,
                "phi_deg": 0.0, "eta_d": 0.85, "eta_bs": 0.5,
                "alpha": 1.0, "v_a": 3.3, "beta": 0.95,
            },
            "m": 1_000_000,
            "frames": 1,
            "block_sizes": [1e8],
        }
        assert run(tmp_path, "simulate", config, "out", seed=3) == 0
        _, rows = read_csv(str(tmp_path / "out" / "keyrates.csv"), "keyrates")
        rates = {row[1]: float(row[3]) for row in rows}
        assert rates["K_n"] > rates["K_N"] > 0.0
        report = json.loads(
            (tmp_path / "out" / "estimation_report.json").read_text()
        )
        assert abs(report["delta_hat"] - math.radians(10.0)) < 6.5 * math.sqrt(
            report["var_delta"]
        )


class TestEstimateCommand:
    def test_round_trip_from_saved_frames(self, tmp_path):
        run(tmp_path, "simulate", SIMULATE_CONFIG, "sim", seed=7)
        frame = tmp_path / "sim" / "frames" / "frame_0000.csv"
        code = main(["estimate", str(frame), "--out", str(tmp_path / "est")])
        assert code == 0
        got = json.loads((tmp_path / "est" / "estimation_report.json").read_text())
        want = json.loads((tmp_path / "sim" / "estimation_report.json").read_text())
        assert got["theta_hat"] == pytest.approx(want["theta_hat"], abs=1e-12)
        assert got["eta_hat"] == pytest.approx(want["eta_hat"], abs=1e-12)


class TestOverrides:
    def test_flag_overrides_file_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(KEYRATE_CONFIG))
        code = main([
            "keyrate", "--config", str(cfg_path),
            "--set", "theta_deg_values=[10.0]", "--set", "eps_grid=[0.0]",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        _, rows = read_csv(str(tmp_path / "out" / "keyrate.csv"), "keyrate")
        assert {float(r[3]) for r in rows} == {10.0}
        assert {float(r[2]) for r in rows} == {0.0}

    def test_param_override_routes_to_params_block(self, tmp_path):
        code = main([
            "keyrate", "--set", "theta_deg=0.0", "--set", "eta_grid=[0.5]",
            "--set", "eps_grid=[0.0]", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        _, rows = read_csv(str(tmp_path / "out" / "keyrate.csv"), "keyrate")
        rates = [float(r[7]) for r in rows]
        assert max(rates) - min(rates) < 1e-9

    def test_malformed_override_is_config_error(self, tmp_path):
        assert main(["keyrate", "--set", "theta_deg",
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["keyrate", "--set", "theta_deg=ten",
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["keyrate", "--set", "bogus=1",
                     "--out", str(tmp_path / "o")]) == 2


class TestErrorPaths:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        assert run(tmp_path, "keyrate", {"bogus": 1}, "out") == 2
        # eps_pe never had an effect and is no longer a key.
        assert run(tmp_path, "finite", {"eps_pe": 1e-10}, "out") == 2
        assert run(tmp_path, "simulate", {"eps_pe": 1e-10}, "out") == 2

    def test_invalid_parameter_is_config_error(self, tmp_path):
        assert run(tmp_path, "keyrate", {"params": {"eta": 2.0}}, "out") == 2

    def test_unknown_param_key_rejected(self, tmp_path):
        assert run(tmp_path, "keyrate", {"params": {"etaa": 0.5}}, "out") == 2

    def test_numeric_failure_exit_code(self, tmp_path):
        frame = tmp_path / "const.csv"
        frame.write_text("x_a,p_a,x_b,p_b\n1.0,1.0,1.0,1.0\n1.0,1.0,1.0,1.0\n")
        code = main(["estimate", str(frame), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_missing_config_file(self, tmp_path):
        code = main(["keyrate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_csv_reader_rejects_wrong_signature(self, tmp_path):
        run(tmp_path, "keyrate", KEYRATE_CONFIG, "out")
        with pytest.raises(ValueError, match="signature"):
            read_csv(str(tmp_path / "out" / "keyrate.csv"), "tolerance")


def _openblas_dynamic_arch() -> bool:
    """numpy links OpenBLAS built to pick its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def _tree_bytes(top) -> dict[str, bytes]:
    out = {}
    for root, _, names in os.walk(top):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = fh.read()
    return out


# Runs the argv lists given as JSON, then hashes a fixed np.cov product:
# that hash changes with the BLAS kernel, so equal hashes in two children
# would mean OPENBLAS_CORETYPE had no effect.
_CHILD = """
import hashlib, json, sys
import numpy as np
from hetqkd.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(1)
probe = np.cov(np.random.default_rng(0).standard_normal((4, 1001)))
print(hashlib.sha256(probe.tobytes()).hexdigest())
"""

KERNELS = ("Prescott", "Haswell")


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.skipif(not {"avx2", "fma"} <= _cpu_flags(),
                    reason="CPU lacks avx2/fma for the Haswell kernel")
class TestCrossKernelBytes:
    """Every golden output is the same, byte for byte, under two OpenBLAS
    kernels: Prescott (SSE3, no FMA) and Haswell (AVX2 with FMA) round
    differently in BLAS and LAPACK, so any product or factorization left on
    the value path of an output shows up here."""

    def test_golden_outputs_identical_across_kernels(self, tmp_path):
        commands = []
        for command, config, seed in (
            ("keyrate", KEYRATE_CONFIG, None), ("tolerance", TOLERANCE_CONFIG, None),
            ("finite", FINITE_CONFIG, None), ("simulate", SIMULATE_CONFIG, 7),
        ):
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(config))
            seed_args = [] if seed is None else ["--seed", str(seed)]
            commands.append([command, "--config", str(cfg_path), *seed_args])
        src = os.path.dirname(os.path.dirname(os.path.abspath(hetqkd.__file__)))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probes, trees = {}, {}
        for kernel in KERNELS:
            out = tmp_path / kernel
            argvs = [argv + ["--out", str(out)] for argv in commands]
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=pythonpath)
            proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                                  env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            probes[kernel] = proc.stdout.split()[-1]
            trees[kernel] = _tree_bytes(out)
        assert probes[KERNELS[0]] != probes[KERNELS[1]], "kernel switch had no effect"
        expected = {
            "keyrate.csv", "tolerance.csv", "finite.csv", "keyrates.csv",
            "estimation_report.json", "estimation_report.txt", "mi_recovery.csv",
            os.path.join("frames", "frame_0000.csv"),
        }
        first, second = trees[KERNELS[0]], trees[KERNELS[1]]
        assert expected <= set(first) and set(first) == set(second)
        differing = sorted(name for name in first if first[name] != second[name])
        assert not differing, f"bytes differ between {KERNELS}: {differing}"
