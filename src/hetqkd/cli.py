"""Batch front-end: key-rate sweeps, tolerance frontiers, finite-size scans,
desk-scale simulation and estimation-from-file.

Every command is a pure function of (config, seed): repeated runs emit
byte-identical files, on any CPU and BLAS kernel, for a given numpy
version.  Configuration is strict JSON (unknown keys are rejected); angles
are degrees at this boundary and radians everywhere inside.  Outputs are
CSV with a versioned comment line, ready for external plotting.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .channel import build_pm_covariance
from .compensation import alice_transform_angles, apply_transform_frame
from .estimation import EstimationReport, estimate_all
from .finite_size import (
    FiniteKeyReport, FiniteScheme, FiniteSizeConfig, finite_key_rate, optimize_fraction,
)
from .info import ignorant_mi, true_mi
from .params import PhysicalParams
from .security import KeyRateVariant, asymptotic_key_rate, max_tolerable_noise
from .simulator import QuadratureFrame, SimConfig, empirical_covariance, generate_frame, load_frame_csv, save_frame_csv

CSV_VERSION = "hetqkd-csv v1"

_PARAM_KEYS = {
    "eta", "eps", "theta_deg", "phi_deg", "eta_d", "eta_bs", "alpha", "v_a", "beta",
}
_PARAM_DEFAULTS = {
    "eta": 10 ** -0.35,
    "eps": 0.005,
    "theta_deg": 10.0,
    "phi_deg": 0.0,
    "eta_d": 0.85,
    "eta_bs": 0.5,
    "alpha": 1.0,
    "v_a": 3.3,
    "beta": 0.95,
}

_COMMAND_KEYS = {
    "keyrate": {"params", "eta_grid", "eps_grid", "theta_deg_values"},
    "tolerance": {"params", "eta_grid", "theta_deg_values", "variants"},
    "finite": {
        "params", "distances_km", "losses_db", "block_sizes",
        "fiber_db_per_km", "z", "eps_smooth", "balance_bs",
    },
    "simulate": {"params", "m", "frames", "block_sizes", "z", "eps_smooth", "balance_bs"},
    "estimate": {"params"},
}


class ConfigError(ValueError):
    pass


def _load_config(path: str | None, command: str, overrides: list[str] | None = None) -> dict:
    if path is None:
        cfg = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} must look like KEY=VALUE")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"override value for {key!r} is not valid JSON: {value!r}") from exc
        if key in _PARAM_KEYS:
            cfg.setdefault("params", {})[key] = parsed
        else:
            cfg[key] = parsed
    unknown = set(cfg) - _COMMAND_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config key 'params' must be an object")
    bad = set(params) - _PARAM_KEYS
    if bad:
        raise ConfigError(f"unknown parameter keys: {sorted(bad)}")
    return cfg


def _params_from_config(cfg: dict, **overrides) -> PhysicalParams:
    raw = dict(_PARAM_DEFAULTS)
    raw.update(cfg.get("params", {}))
    raw.update(overrides)
    try:
        return PhysicalParams(
            eta=float(raw["eta"]),
            eps=float(raw["eps"]),
            theta=math.radians(float(raw["theta_deg"])),
            phi=math.radians(float(raw["phi_deg"])),
            eta_d=float(raw["eta_d"]),
            eta_bs=float(raw["eta_bs"]),
            alpha=float(raw["alpha"]),
            v_a=float(raw["v_a"]),
            beta=float(raw["beta"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def _grid(cfg: dict, key: str, default: list[float]) -> list[float]:
    value = cfg.get(key)
    if value is None:
        return list(default)
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list):
        return [float(v) for v in value]
    if isinstance(value, dict):
        extra = set(value) - {"start", "stop", "num"}
        if extra or set(value) != {"start", "stop", "num"}:
            raise ConfigError(f"grid {key} needs exactly start/stop/num")
        return [float(v) for v in np.linspace(value["start"], value["stop"], int(value["num"]))]
    raise ConfigError(f"grid {key} must be a number, list or start/stop/num object")


def _write_csv(path: str, name: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {CSV_VERSION} {name}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def read_csv(path: str, expected_name: str) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by this tool, rejecting version/name mismatches."""
    with open(path, "r", encoding="ascii") as fh:
        version = fh.readline().strip()
        if version != f"# {CSV_VERSION} {expected_name}":
            raise ValueError(f"unexpected CSV signature {version!r}")
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


_VARIANTS = (KeyRateVariant.TT, KeyRateVariant.IT, KeyRateVariant.TI, KeyRateVariant.II)


def cmd_keyrate(cfg: dict, seed: int, out: str) -> list[str]:
    base = _params_from_config(cfg)
    etas = _grid(cfg, "eta_grid", [base.eta])
    epss = _grid(cfg, "eps_grid", [base.eps])
    thetas = _grid(cfg, "theta_deg_values", [math.degrees(base.theta)])
    rows = []
    for variant in _VARIANTS:
        for theta_deg in thetas:
            for eta in etas:
                for eps in epss:
                    p = replace(
                        base, eta=eta, eps=eps, theta=math.radians(theta_deg)
                    )
                    rep = asymptotic_key_rate(p, variant)
                    rows.append([
                        variant.label, eta, eps, theta_deg,
                        math.degrees(p.phi), rep.mi, rep.chi, rep.rate,
                    ])
    path = os.path.join(out, "keyrate.csv")
    _write_csv(path, "keyrate",
               ["variant", "eta", "eps", "theta_deg", "phi_deg", "mi", "chi", "rate"],
               rows)
    return [path]


def cmd_tolerance(cfg: dict, seed: int, out: str) -> list[str]:
    base = _params_from_config(cfg)
    etas = _grid(cfg, "eta_grid", list(np.linspace(0.1, 1.0, 10)))
    thetas = _grid(cfg, "theta_deg_values", [0.0, 10.0, 15.0, 30.0])
    wanted = cfg.get("variants", [v.name for v in _VARIANTS])
    try:
        variants = [KeyRateVariant[name] for name in wanted]
    except KeyError as exc:
        raise ConfigError(f"unknown variant {exc}") from exc
    rows = []
    for variant in variants:
        for theta_deg in thetas:
            for eta in etas:
                p = replace(base, eta=eta, eps=0.0, theta=math.radians(theta_deg))
                eps_max = max_tolerable_noise(p, variant)
                rows.append([variant.label, theta_deg, eta, eps_max])
    path = os.path.join(out, "tolerance.csv")
    _write_csv(path, "tolerance", ["variant", "theta_deg", "eta", "eps_max"], rows)
    return [path]


def _block_rates(
    p: PhysicalParams, report: EstimationReport, cfg: dict, n_total: float
) -> list[tuple[float, FiniteKeyReport]]:
    """``(frac_key, report)`` of K_n at its best key fraction, then of K_N."""
    given = {key: float(cfg[key]) for key in ("z", "eps_smooth") if key in cfg}
    fs_cfg = FiniteSizeConfig(n_total=n_total, **given)
    balance_bs = bool(cfg.get("balance_bs", False))
    k_n = optimize_fraction(p, report, fs_cfg, balance_bs=balance_bs)
    k_full = finite_key_rate(p, report, fs_cfg, FiniteScheme.EC_BEFORE_PE, balance_bs=balance_bs)
    return [k_n, (1.0, k_full)]


def cmd_finite(cfg: dict, seed: int, out: str) -> list[str]:
    base = _params_from_config(cfg)
    db_per_km = float(cfg.get("fiber_db_per_km", 0.2))
    if "losses_db" in cfg and "distances_km" in cfg:
        raise ConfigError("give either distances_km or losses_db, not both")
    if "losses_db" in cfg:
        losses = [float(v) for v in cfg["losses_db"]]
        distances = [db / db_per_km for db in losses]
    else:
        distances = _grid(cfg, "distances_km", [5.0, 10.0, 17.0, 25.0, 40.0])
        losses = [d * db_per_km for d in distances]
    block_sizes = [float(v) for v in cfg.get("block_sizes", [1e6, 1e7, 1e8])]

    rows = []
    for dist, loss in zip(distances, losses):
        eta = 10 ** (-loss / 10.0)
        p = replace(base, eta=eta)
        report = estimate_all(build_pm_covariance(p), p)
        for n_total in block_sizes:
            for frac, rep in _block_rates(p, report, cfg, n_total):
                rows.append([dist, loss, n_total, rep.scheme.label, frac, rep.rate])
    path = os.path.join(out, "finite.csv")
    _write_csv(path, "finite",
               ["distance_km", "loss_db", "n_total", "scheme", "frac_key", "rate"],
               rows)
    return [path]


def _pool_frames(frames: list[QuadratureFrame]) -> QuadratureFrame:
    if len(frames) == 1:
        return frames[0]
    return QuadratureFrame(
        x_a=np.concatenate([f.x_a for f in frames]),
        p_a=np.concatenate([f.p_a for f in frames]),
        x_b=np.concatenate([f.x_b for f in frames]),
        p_b=np.concatenate([f.p_b for f in frames]),
        meta=frames[0].meta,
        transformed=frames[0].transformed,
    )


def _write_report(report: EstimationReport, out: str) -> list[str]:
    json_path = os.path.join(out, "estimation_report.json")
    txt_path = os.path.join(out, "estimation_report.txt")
    with open(json_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(report.to_json())
    with open(txt_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(report.to_text())
    return [json_path, txt_path]


def cmd_simulate(cfg: dict, seed: int, out: str) -> list[str]:
    p = _params_from_config(cfg)
    m = int(cfg.get("m", 10**6))
    n_frames = int(cfg.get("frames", 1))
    block_sizes = [float(v) for v in cfg.get("block_sizes", [1e8])]
    sim = SimConfig(params=p, m=m, frames=n_frames, seed=seed)

    frame_dir = os.path.join(out, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    written = []
    frames = []
    for idx in range(n_frames):
        frame = generate_frame(sim, idx)
        frames.append(frame)
        path = os.path.join(frame_dir, f"frame_{idx:04d}.csv")
        save_frame_csv(frame, path)
        written.append(path)

    pooled = _pool_frames(frames)
    report = estimate_all(pooled, p)
    written += _write_report(report, out)

    gamma = empirical_covariance(pooled)
    spec = alice_transform_angles(gamma)
    recovered = empirical_covariance(apply_transform_frame(pooled, spec))
    mi_rows = [
        ["ignorant_mi_before", ignorant_mi(gamma)],
        ["ignorant_mi_after_transform", ignorant_mi(recovered)],
        ["true_mi", true_mi(gamma)],
        ["transform_theta_deg", math.degrees(spec.theta_cap)],
        ["transform_phi_deg", math.degrees(spec.phi_cap)],
    ]
    mi_path = os.path.join(out, "mi_recovery.csv")
    _write_csv(mi_path, "mi_recovery", ["quantity", "value"], mi_rows)
    written.append(mi_path)

    rows = []
    for n_total in block_sizes:
        for frac, rep in _block_rates(p, report, cfg, n_total):
            b = rep.bounds
            rows.append([n_total, rep.scheme.label, frac, rep.rate,
                         b.eta_low, b.eps_up, math.degrees(b.delta_up)])
    rates_path = os.path.join(out, "keyrates.csv")
    _write_csv(rates_path, "keyrates",
               ["n_total", "scheme", "frac_key", "rate",
                "eta_low", "eps_up", "delta_up_deg"],
               rows)
    written.append(rates_path)
    return written


def cmd_estimate(cfg: dict, seed: int, out: str, frame_paths: list[str]) -> list[str]:
    if not frame_paths:
        raise ConfigError("estimate requires at least one frame file")
    frames = [load_frame_csv(path) for path in frame_paths]
    pooled = _pool_frames(frames)
    if frames[0].meta.params is not None and "params" not in cfg:
        known = frames[0].meta.params
    else:
        known = _params_from_config(cfg)
    report = estimate_all(pooled, known)
    return _write_report(report, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetqkd",
        description="CV-QKD security analysis for imbalanced heterodyne receivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("keyrate", "asymptotic key rates of all four variants over a grid"),
        ("tolerance", "maximal tolerable excess noise versus channel loss"),
        ("finite", "finite-size rates versus distance and block size"),
        ("simulate", "generate frames, estimate, transform and rate them"),
        ("estimate", "parameter estimation from stored frame files"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", default=None, help="JSON configuration file")
        cmd.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE",
            help="override a config key (JSON value); parameter keys go to the params block",
        )
        if name == "estimate":
            cmd.add_argument("frames", nargs="+", help="frame CSV files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command, args.overrides)
        if not 0 <= args.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        os.makedirs(args.out, exist_ok=True)
        if args.command == "keyrate":
            written = cmd_keyrate(cfg, args.seed, args.out)
        elif args.command == "tolerance":
            written = cmd_tolerance(cfg, args.seed, args.out)
        elif args.command == "finite":
            written = cmd_finite(cfg, args.seed, args.out)
        elif args.command == "simulate":
            written = cmd_simulate(cfg, args.seed, args.out)
        else:
            written = cmd_estimate(cfg, args.seed, args.out, args.frames)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
