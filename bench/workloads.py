"""Seeded workload definitions: CLI configs, the closed-loop cycle and the
call counts a config implies.

Every draw comes from ``random.Random(seed)``, so one seed always gives the
same configs, and the program under test sees only those configs (plus the
seed itself for ``simulate``, which is a CLI argument).  Grid sizes are fixed
and values are drawn by stratified sampling, so the amount of work in a cycle
barely moves from seed to seed while the values do.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("asymptotic", "finite", "montecarlo")

VARIANTS = ("TT", "IT", "TI", "II")
#: Key fractions ``optimize_fraction`` tries (``finite_size.FRACTION_GRID``);
#: ``finite_key_rate`` runs once per fraction plus once for the K_N row.
N_FRACTIONS = 19

# Work per cycle.  keyrate: 25 x 10 x 4 = 1000 points, 4000 rows.
KEYRATE_ETAS, KEYRATE_EPSS, N_THETAS = 25, 10, 4
TOLERANCE_ETAS = 10
FINITE_LOSSES, FINITE_BLOCKS = 4, 4
MC_M, MC_FRAMES, MC_BLOCKS = 250_000, 2, 2


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal bins of [lo, hi], ascending."""
    width = (hi - lo) / n
    return [lo + width * (k + rng.random()) for k in range(n)]


def _thetas(rng: random.Random) -> list[float]:
    # 0 deg gives the zero-imbalance rows the correctness gate checks
    # against the closed-form oracle; the rest cover (0, 30] deg.
    return [0.0] + _strata(rng, 0.0, 30.0, N_THETAS - 1)


def make_configs(workload: str, seed: int) -> dict[str, dict]:
    """The CLI configs of one workload, keyed by command name."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "asymptotic":
        # Balanced splitter and phi = 0: the 0 deg rows have zero imbalance.
        params = {
            "eta_bs": 0.5, "phi_deg": 0.0,
            "eta_d": rng.uniform(0.7, 1.0), "alpha": rng.uniform(0.8, 1.25),
            "v_a": rng.uniform(2.0, 5.0), "beta": rng.uniform(0.9, 0.98),
        }
        return {
            "keyrate": {
                "params": params,
                "eta_grid": _strata(rng, 0.05, 1.0, KEYRATE_ETAS),
                "eps_grid": _strata(rng, 0.0, 0.08, KEYRATE_EPSS),
                "theta_deg_values": _thetas(rng),
            },
            "tolerance": {
                "params": params,
                "eta_grid": _strata(rng, 0.1, 1.0, TOLERANCE_ETAS),
                "theta_deg_values": _thetas(rng),
                "variants": list(VARIANTS),
            },
        }
    if workload == "finite":
        params = {
            "eps": rng.uniform(0.002, 0.02), "theta_deg": rng.uniform(0.0, 15.0),
            "phi_deg": rng.uniform(-5.0, 5.0), "eta_d": rng.uniform(0.75, 0.95),
            "eta_bs": rng.uniform(0.45, 0.55), "v_a": rng.uniform(2.5, 4.5),
            "beta": rng.uniform(0.92, 0.98),
        }
        return {
            "finite": {
                "params": params,
                "losses_db": _strata(rng, 1.0, 10.0, FINITE_LOSSES),
                "block_sizes": [10.0 ** e for e in _strata(rng, 6.0, 10.0, FINITE_BLOCKS)],
            },
        }
    if workload == "montecarlo":
        params = {
            "eta": 10.0 ** (-rng.uniform(2.0, 6.0) / 10.0), "eps": rng.uniform(0.005, 0.03),
            "theta_deg": rng.uniform(2.0, 15.0), "phi_deg": rng.uniform(-10.0, 10.0),
            "eta_d": rng.uniform(0.75, 0.95), "eta_bs": rng.uniform(0.45, 0.55),
            "alpha": rng.uniform(0.9, 1.1), "v_a": rng.uniform(2.5, 4.5),
            "beta": rng.uniform(0.92, 0.98),
        }
        return {
            "simulate": {
                "params": params, "m": MC_M, "frames": MC_FRAMES,
                "block_sizes": [10.0 ** e for e in _strata(rng, 7.0, 11.0, MC_BLOCKS)],
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a cycle: its argv and the work units it completes."""

    command: str
    argv: tuple[str, ...]
    units: int
    out: str


def cycle(workload: str, seed: int, configs: dict[str, dict], cfg_dir: str, out_dir: str) -> list[Invocation]:
    """The invocations of one closed-loop cycle, in order.

    ``cfg_dir`` holds ``<command>.json`` for each config; outputs go below
    ``out_dir``.  Each invocation waits for the previous one.
    """
    def argv(cmd: str, out: str, *extra: str) -> tuple[str, ...]:
        return (cmd, "--config", os.path.join(cfg_dir, f"{cmd}.json"), "--out", out, *extra)

    if workload == "montecarlo":
        sim = configs["simulate"]
        samples = sim["m"] * sim["frames"]
        sim_out, est_out = os.path.join(out_dir, "sim"), os.path.join(out_dir, "est")
        frames = [os.path.join(sim_out, "frames", f"frame_{i:04d}.csv") for i in range(sim["frames"])]
        # estimate takes its parameters from the frames' meta sidecars.
        return [
            Invocation("simulate", argv("simulate", sim_out, "--seed", str(seed)), samples, sim_out),
            Invocation("estimate", ("estimate", "--out", est_out, *frames), samples, est_out),
        ]
    counts = units(configs)
    return [
        Invocation(cmd, argv(cmd, os.path.join(out_dir, cmd)), counts[cmd], os.path.join(out_dir, cmd))
        for cmd in configs
    ]


def units(configs: dict[str, dict]) -> dict[str, int]:
    """Work units per command: output rows, (distance, block) pairs or samples."""
    out = {}
    if "keyrate" in configs:
        c = configs["keyrate"]
        out["keyrate"] = len(VARIANTS) * len(c["eta_grid"]) * len(c["eps_grid"]) * len(c["theta_deg_values"])
    if "tolerance" in configs:
        c = configs["tolerance"]
        out["tolerance"] = len(c["variants"]) * len(c["theta_deg_values"]) * len(c["eta_grid"])
    if "finite" in configs:
        c = configs["finite"]
        out["finite"] = len(c["losses_db"]) * len(c["block_sizes"])
    if "simulate" in configs:
        c = configs["simulate"]
        out["simulate"] = out["estimate"] = c["m"] * c["frames"]
    return out


def expected_calls(configs: dict[str, dict]) -> dict[tuple[str, str], int]:
    """Calls per invocation that the configs imply, keyed by (command, span name)."""
    u = units(configs)
    out = {}
    if "keyrate" in configs:
        out[("keyrate", "security.asymptotic_key_rate")] = u["keyrate"]
    if "tolerance" in configs:
        out[("tolerance", "security.max_tolerable_noise")] = u["tolerance"]
    if "finite" in configs:
        out[("finite", "finite_size.optimize_fraction")] = u["finite"]
        out[("finite", "finite_size.finite_key_rate")] = (N_FRACTIONS + 1) * u["finite"]
    if "simulate" in configs:
        frames = configs["simulate"]["frames"]
        out[("simulate", "simulator.generate_frame")] = frames
        out[("simulate", "simulator.save_frame_csv")] = frames
        out[("estimate", "simulator.load_frame_csv")] = frames
    return out
