"""Correctness gate for the benchmark's CLI outputs.

It compares values, not bytes, so it holds on every BLAS kernel: the golden
digests of the test suite change with ``OPENBLAS_CORETYPE``.  Each check
returns a list of problems; an empty list means the invocation passed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os

#: The gate tolerates this many standard deviations between an estimate
#: and the simulated truth (two-sided false alarm ~6e-7 per estimate).
Z_GATE = 5.0
#: Relative tolerance of the stored default-seed reference.
REF_RTOL = 1e-9
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_oracles(root: str):
    """The closed-form test oracles of the checkout, ``tests/oracles.py``."""
    spec = importlib.util.spec_from_file_location("hetqkd_oracles", os.path.join(root, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """A CSV the CLI wrote, named by its file name (``keyrate.csv``: ``keyrate``).

    ``run.load_cli`` has put the checkout's ``src/`` on the path."""
    from hetqkd.cli import read_csv as cli_read_csv

    return cli_read_csv(path, os.path.splitext(os.path.basename(path))[0])


def _columns(path: str, n_rows: int, problems: list[str]) -> list[dict]:
    """Rows as dicts with every non-label field a finite float."""
    header, rows = read_csv(path)
    if len(rows) != n_rows:
        problems.append(f"{os.path.basename(path)}: {len(rows)} rows, expected {n_rows}")
    out = []
    for row in rows:
        rec = {}
        for key, value in zip(header, row):
            if key in ("variant", "scheme", "quantity"):
                rec[key] = value
                continue
            rec[key] = float(value)
            if not math.isfinite(rec[key]):
                problems.append(f"{os.path.basename(path)}: non-finite {key}")
        out.append(rec)
    return out


def check_keyrate(cfg: dict, out: str, n_rows: int, oracles) -> list[str]:
    problems: list[str] = []
    rows = _columns(os.path.join(out, "keyrate.csv"), n_rows, problems)
    p = cfg["params"]
    v_mod = p["alpha"] ** 2 * p["v_a"]
    zero_imbalance: dict[tuple, list[dict]] = {}
    for r in rows:
        if r["rate"] < 0.0 or abs(r["rate"] - max(0.0, p["beta"] * r["mi"] - r["chi"])) > 1e-12:
            problems.append(f"keyrate: rate {r['rate']} is not max(0, beta mi - chi)")
        if r["theta_deg"] == 0.0 and r["phi_deg"] == 0.0:
            zero_imbalance.setdefault((r["eta"], r["eps"]), []).append(r)
    if not zero_imbalance:
        problems.append("keyrate: no zero-imbalance rows")
    for (eta, eps), group in zero_imbalance.items():
        for key in ("mi", "chi", "rate"):
            values = [r[key] for r in group]
            if len(values) != 4 or max(values) - min(values) > 1e-9:
                problems.append(f"keyrate: variants do not collapse at eta={eta}, eps={eps} ({key})")
        if p["eta_bs"] == 0.5:
            want = oracles.chi_no_switching(v_mod, eta * p["eta_d"], eps)
            if any(abs(r["chi"] - want) > 1e-9 for r in group):
                problems.append(f"keyrate: chi differs from the closed-form oracle at eta={eta}, eps={eps}")
    return problems


def check_tolerance(cfg: dict, out: str, n_rows: int) -> list[str]:
    problems: list[str] = []
    rows = _columns(os.path.join(out, "tolerance.csv"), n_rows, problems)
    zero_imbalance: dict[float, list[float]] = {}
    phi_deg = cfg["params"]["phi_deg"]
    for r in rows:
        if r["eps_max"] < 0.0:
            problems.append(f"tolerance: negative eps_max {r['eps_max']}")
        if r["theta_deg"] == 0.0 and phi_deg == 0.0:
            zero_imbalance.setdefault(r["eta"], []).append(r["eps_max"])
    for eta, values in zero_imbalance.items():
        # Identical rates give identical bisections; allow one step of tol.
        if max(values) - min(values) > 2e-6:
            problems.append(f"tolerance: variants do not collapse at eta={eta}")
    return problems


def check_finite(cfg: dict, out: str, n_points: int) -> list[str]:
    problems: list[str] = []
    rows = _columns(os.path.join(out, "finite.csv"), 2 * n_points, problems)
    by_curve: dict[tuple, list[dict]] = {}
    for r in rows:
        if r["rate"] < 0.0:
            problems.append(f"finite: negative rate {r['rate']}")
        if r["scheme"] not in ("K_n", "K_N"):
            problems.append(f"finite: unknown scheme {r['scheme']}")
        if (r["scheme"] == "K_N" and r["frac_key"] != 1.0) or not 0.0 < r["frac_key"] <= 1.0:
            problems.append(f"finite: key fraction {r['frac_key']} out of range")
        by_curve.setdefault((r["loss_db"], r["scheme"]), []).append(r)
    for (loss, scheme), curve in by_curve.items():
        # More signals tighten every bound and shrink the penalty.
        curve.sort(key=lambda r: r["n_total"])
        if any(b["rate"] < a["rate"] - 1e-12 for a, b in zip(curve, curve[1:])):
            problems.append(f"finite: {scheme} rate falls with block size at {loss} dB")
    return problems


def _load_report(out: str) -> dict:
    with open(os.path.join(out, "estimation_report.json"), encoding="ascii") as fh:
        return json.load(fh)


def check_simulate(cfg: dict, out: str) -> list[str]:
    problems: list[str] = []
    p = cfg["params"]
    rep = _load_report(out)
    tau = 0.5 * p["eta_d"]  # mean of eta_d eta_bs and eta_d (1 - eta_bs)
    # var_eps is the variance of the raw residual estimator of eta tau eps
    # (the package's adopted convention); eps_hat is channel-referred.
    sigmas = {
        "theta_hat": (math.radians(p["theta_deg"]), math.sqrt(rep["var_theta"])),
        "phi_hat": (math.radians(p["phi_deg"]), math.sqrt(rep["var_phi"])),
        "eta_hat": (p["eta"], math.sqrt(rep["var_eta"])),
        "eps_hat": (p["eps"], math.sqrt(rep["var_eps"]) / (rep["eta_hat"] * tau)),
    }
    for key, (truth, sigma) in sigmas.items():
        if not abs(rep[key] - truth) <= Z_GATE * sigma:
            problems.append(f"simulate: {key}={rep[key]} is {abs(rep[key] - truth) / sigma:.1f} sigma from {truth}")
    if rep["m"] != cfg["m"] * cfg["frames"]:
        problems.append(f"simulate: report m={rep['m']}")
    for i in range(cfg["frames"]):
        if not os.path.isfile(os.path.join(out, "frames", f"frame_{i:04d}.csv")):
            problems.append(f"simulate: frame {i} missing")
    rates = _columns(os.path.join(out, "keyrates.csv"), 2 * len(cfg["block_sizes"]), problems)
    if any(r["rate"] < 0.0 for r in rates):
        problems.append("simulate: negative rate")
    _columns(os.path.join(out, "mi_recovery.csv"), 5, problems)
    return problems


def check_estimate(out: str, sim_out: str) -> list[str]:
    """The CSV round trip is lossless, so the reports must be equal."""
    if _load_report(out) != _load_report(sim_out):
        return ["estimate: report from the written frames differs from the simulate report"]
    return []


def reference_values(command: str, out: str) -> dict[str, list[float]]:
    """The values the default-seed reference stores for one command."""
    if command in ("keyrate", "tolerance", "finite"):
        header, rows = read_csv(os.path.join(out, f"{command}.csv"))
        fields = {"keyrate": ("mi", "chi", "rate"), "tolerance": ("eps_max",),
                  "finite": ("frac_key", "rate")}[command]
        step = 40 if command == "keyrate" else 1
        return {f: [float(r[header.index(f)]) for r in rows[::step]] for f in fields}
    rep = _load_report(out)
    values = {k: [float(v)] for k, v in sorted(rep.items()) if isinstance(v, float)}
    if command == "simulate":
        header, rows = read_csv(os.path.join(out, "keyrates.csv"))
        for f in ("frac_key", "rate", "eta_low", "eps_up", "delta_up_deg"):
            values[f] = [float(r[header.index(f)]) for r in rows]
        _, rows = read_csv(os.path.join(out, "mi_recovery.csv"))
        values["mi_recovery"] = [float(r[1]) for r in rows]
    return values


def check_reference(expected: dict[str, list[float]], command: str, out: str) -> list[str]:
    got = reference_values(command, out)
    problems = []
    for field in sorted(set(expected) | set(got)):
        a, b = expected.get(field, []), got.get(field, [])
        if len(a) != len(b) or not all(math.isclose(x, y, rel_tol=REF_RTOL, abs_tol=1e-12) for x, y in zip(a, b)):
            problems.append(f"{command}: {field} differs from the default-seed reference")
    return problems


def digest_tree(path: str) -> dict[str, str]:
    """SHA-256 of every file below ``path``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(full, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(full, path)] = h.hexdigest()
    return out
