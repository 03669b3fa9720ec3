"""Closed-loop benchmark of the hetqkd command-line interface.

    python3 bench/run.py --workload asymptotic|finite|montecarlo \
        --seed N --seconds S --trace 0|1

One caller drives ``hetqkd.cli.main`` with the argv a user would type; each
invocation waits for the previous one.  The seed generates the configs
(``workloads.py``); a cycle runs the workload's commands once, and cycles
repeat until ``--seconds`` of command time is measured.  Every invocation's
outputs pass the value-based gate of ``checks.py`` and must repeat byte for
byte across cycles.  With ``--trace 1`` every other cycle runs with spans
around each layer (``tracer.py``) and the run reports layer metrics instead
of end-to-end ones.  Results, the environment record and spans go to
``.bench_out/results/``; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import glob
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import checks
import tracer as tr
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
#: Fresh interpreters timed for setup_s, after one that compiles bytecode.
SETUP_SAMPLES = 5
#: Set-up probe time of the machine setup_s is scaled to: a 2-vCPU Xeon
#: virtual machine, where ``probe(quadrature=False)`` takes about 0.08 s.
NOMINAL_PROBE_S = 0.08
MIN_CYCLES = 3
#: Stop starting cycles after this much wall time, to end well within 180 s.
WALL_CAP_S = 120.0
#: The first command a new user types: four rows of keyrate.
TINY = ("keyrate", "--set", "eta_grid=[0.5]", "--set", "eps_grid=[0.01]",
        "--set", "theta_deg_values=[0]")

#: Per-command throughput names and units, as the usage note lists them.
NAMED = {
    "keyrate": ("keyrate_pts_per_s", "rows/s"),
    "tolerance": ("tolerance_pts_per_s", "rows/s"),
    "finite": ("finite_pts_per_s", "pairs/s"),
    "simulate": ("simulate_samples_per_s", "samples/s"),
    "estimate": ("estimate_samples_per_s", "samples/s"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_cli():
    """Import ``hetqkd.cli`` from this checkout's sources, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hetqkd", "cli.py")):
        raise FileNotFoundError(f"no hetqkd sources under {SRC}")
    cap = str(nproc())
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = cap
    sys.path.insert(0, SRC)
    from hetqkd import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hetqkd imported from {cli.__file__}, not {SRC}")
    return cli


def call_cli(cli, argv) -> tuple[int, float, str]:
    """Run one CLI invocation; returns (exit code, wall seconds, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation; keep measuring
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return code, wall, err.getvalue()


def probe(*, quadrature: bool) -> float:
    """Machine speed right now: the median of three timings of a fixed mix
    of work that does not touch hetqkd (the interpreter, 4x4 linear
    algebra, cache-sized vector math, a 2 MB read stream and float text).
    The median drops a repetition that a momentary stall hit.

    With ``quadrature`` the mix adds 128-node Gauss-Legendre rules, a LAPACK
    eigen-solve on the capped BLAS threads.  CPU steal by other tenants
    slows such solves more than single-threaded work, and ``finite``
    spends most of its time in them, so commands are paired with this
    probe.  Set-up (imports, one thread) is paired with the probe without
    them, which tracks it better."""
    return statistics.median(_probe_once(quadrature) for _ in range(3))


def _probe_once(quadrature: bool) -> float:
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    a = np.arange(16.0).reshape(4, 4) + np.eye(4)
    for _ in range(600):
        acc += float(np.sum(np.linalg.eigvals(a @ a.T)))
    for _ in range(4 if quadrature else 0):
        acc += float(np.sum(np.polynomial.legendre.leggauss(128)[0]))
    x = np.linspace(-1.0, 1.0, 128)
    for _ in range(200):
        acc += float(np.sum(np.exp(-0.5 * (x[:, None] - 0.1) ** 2) * np.cos(x[None, :])))
    block = np.ones(250_000)
    for _ in range(40):
        acc += float(block.sum())
    text = [repr(math.sqrt(i + 0.5)) for i in range(20_000)]
    acc += sum(float(v) for v in text)
    return time.perf_counter() - t0


def measure_setup(tmp: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import hetqkd.cli and run TINY,
    and the probes run before, between and after them."""
    code = "import sys; from hetqkd.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=SRC)
    times, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        if i:
            probes.append(probe(quadrature=False))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *TINY, "--out", os.path.join(tmp, "setup")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, timeout=60, check=False,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup command failed: {proc.stderr.decode(errors='replace')}")
        if i:
            times.append(wall)
    probes.append(probe(quadrature=False))
    return times, probes


def paired(probes: list[float]) -> list[float]:
    """The probe paired with each timed step: the mean of the probes run
    just before and just after it."""
    return [0.5 * (a + b) for a, b in zip(probes, probes[1:])]


def write_configs(configs: dict[str, dict], cfg_dir: str) -> None:
    os.makedirs(cfg_dir, exist_ok=True)
    for command, cfg in configs.items():
        with open(os.path.join(cfg_dir, f"{command}.json"), "w", encoding="ascii") as fh:
            json.dump(cfg, fh, indent=1)


def check_invocation(inv: wl.Invocation, configs: dict, outs: dict[str, str], oracles, reference) -> list[str]:
    """Value checks of one invocation's outputs; reference only for the default seed."""
    try:
        if inv.command == "keyrate":
            problems = checks.check_keyrate(configs["keyrate"], inv.out, inv.units, oracles)
        elif inv.command == "tolerance":
            problems = checks.check_tolerance(configs["tolerance"], inv.out, inv.units)
        elif inv.command == "finite":
            problems = checks.check_finite(configs["finite"], inv.out, inv.units)
        elif inv.command == "simulate":
            problems = checks.check_simulate(configs["simulate"], inv.out)
        else:
            problems = checks.check_estimate(inv.out, outs["simulate"])
        if reference is not None:
            problems += checks.check_reference(reference[inv.command], inv.command, inv.out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"{inv.command}: unreadable output: {exc!r}"]
    return problems


class Run:
    """One benchmark run: closed-loop cycles, checks, and the spans of traced cycles."""

    def __init__(self, cli, workload: str, seed: int, tmp: str):
        self.cli, self.workload, self.seed, self.tmp = cli, workload, seed, tmp
        self.configs = wl.make_configs(workload, seed)
        self.cfg_dir = os.path.join(tmp, "configs")
        write_configs(self.configs, self.cfg_dir)
        self.oracles = checks.load_oracles(ROOT)
        self.reference = None
        if seed == DEFAULT_SEED:
            with open(checks.REFERENCE, encoding="ascii") as fh:
                self.reference = json.load(fh)[workload]
        self.tracer = tr.Tracer()
        self.cycles: list[dict] = []
        self.invocations: dict[int, tuple[int, str]] = {}  # traced id -> (cycle, command)
        self.first_digests: dict[str, dict[str, str]] = {}

    def cycle(self, index: int, traced: bool) -> dict:
        out_dir = os.path.join(self.tmp, f"cycle{index}")
        invs = wl.cycle(self.workload, self.seed, self.configs, self.cfg_dir, out_dir)
        outs = {inv.command: inv.out for inv in invs}
        rec = {"traced": traced, "times": {}, "problems": {}, "probes": []}
        with self.tracer.installed() if traced else nullcontext():
            for inv in invs:
                if traced:
                    self.tracer.invocation = len(self.invocations)
                    self.invocations[self.tracer.invocation] = (index, inv.command)
                else:
                    rec["probes"].append(probe(quadrature=True))
                code, wall, err = call_cli(self.cli, inv.argv)
                rec["times"][inv.command] = wall
                rec["problems"][inv.command] = [] if code == 0 else [f"{inv.command}: exit {code}: {err.strip()}"]
        if not traced:
            rec["probes"].append(probe(quadrature=True))
        for inv in invs:
            problems = rec["problems"][inv.command]
            if problems:
                continue
            problems += check_invocation(inv, self.configs, outs, self.oracles, self.reference)
            digests = checks.digest_tree(inv.out)
            first = self.first_digests.setdefault(inv.command, digests)
            if digests != first:
                problems.append(f"{inv.command}: output bytes differ from the first invocation")
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    def loop(self, seconds: float, trace: bool) -> None:
        """Cycles until ``seconds`` of command time; traced runs alternate."""
        call_cli(self.cli, (*TINY, "--out", os.path.join(self.tmp, "warmup")))
        measured, start = 0.0, time.perf_counter()
        min_cycles = 4 if trace else MIN_CYCLES
        while measured < seconds or len(self.cycles) < min_cycles:
            if len(self.cycles) >= 2 and time.perf_counter() - start > WALL_CAP_S:
                break
            rec = self.cycle(len(self.cycles), traced=trace and len(self.cycles) % 2 == 1)
            self.cycles.append(rec)
            measured += sum(rec["times"].values())

    def check_counts(self) -> None:
        """Traced call counts must equal the counts the configs imply."""
        expected = wl.expected_calls(self.configs)
        got: dict[tuple[int, str], int] = {}
        for s in self.tracer.spans:
            got[(s[tr.INV], s[tr.NAME])] = got.get((s[tr.INV], s[tr.NAME]), 0) + 1
        for inv_id, (index, command) in self.invocations.items():
            for (cmd, name), want in expected.items():
                if cmd == command and got.get((inv_id, name), 0) != want:
                    self.cycles[index]["problems"][command].append(
                        f"{command}: traced {got.get((inv_id, name), 0)} calls of {name}, config implies {want}")


def cycle_times(cycles: list[dict], traced: bool) -> list[float]:
    return [sum(c["times"].values()) for c in cycles if c["traced"] == traced]


def end_to_end(run: Run, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """Contract metrics and the per-command figures, from untraced cycles."""
    plain = [c for c in run.cycles if not c["traced"]]
    units = wl.units(run.configs)
    named = {}
    # Time over the probes paired with it: drift in machine speed over
    # seconds cancels, program cost stays.
    command_s = {command: 0.0 for command in units}
    probe_s = dict(command_s)
    for c in plain:
        for (command, t), p in zip(c["times"].items(), paired(c["probes"])):
            command_s[command] += t
            probe_s[command] += p
    for command in units:
        name, unit = NAMED[command]
        rates = [units[command] / c["times"][command] for c in plain]
        named[name] = {"value": statistics.median(rates), "unit": unit, "n": len(rates)}
        named[f"{command}_probes"] = {"value": command_s[command] / probe_s[command], "unit": "probes",
                                      "n": len(plain)}
    named["cycle_s"] = {"value": statistics.median(cycle_times(run.cycles, False)), "unit": "s", "n": len(plain)}
    setup_times, setup_probes = setup
    named["setup_raw_s"] = {"value": statistics.median(setup_times), "unit": "s", "n": len(setup_times)}
    # Total command time over total paired probe time, scaled to one cycle.
    cycle_probes = sum(command_s.values()) / sum(probe_s.values()) * len(units)
    metrics = {
        "setup_s": {"value": NOMINAL_PROBE_S * statistics.median(
            t / p for t, p in zip(setup_times, paired(setup_probes))), "unit": "s"},
        "cycle_probes": {"value": cycle_probes, "unit": "probes"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
    }
    return metrics, named


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics: medians over traced cycles of per-cycle values."""
    spans = run.tracer.spans
    names = {s[tr.ID]: s[tr.NAME] for s in spans}
    # Per (cycle, span name): calls, total ns, self ns, notes; plus the
    # bisection's inner evaluations and CovMat4 builds inside keyrate.
    agg: dict[tuple[int, str], list] = {}
    extra: dict[tuple[int, str], int] = {}
    for s, self_ns in zip(spans, tr.self_times(spans)):
        index, command = run.invocations[s[tr.INV]]
        a = agg.setdefault((index, s[tr.NAME]), [0, 0, 0, []])
        a[0] += 1
        a[1] += s[tr.END] - s[tr.START]
        a[2] += self_ns
        if s[tr.NOTE] is not None:
            a[3].append(s[tr.NOTE])
        if s[tr.NAME] == "security.asymptotic_key_rate" and names.get(s[tr.PARENT]) == "security.max_tolerable_noise":
            extra[(index, "bisection_evals")] = extra.get((index, "bisection_evals"), 0) + 1
        if s[tr.NAME] == "gaussian.CovMat4" and command == "keyrate":
            extra[(index, "keyrate_covmats")] = extra.get((index, "keyrate_covmats"), 0) + 1
    traced = sorted({index for index, _ in run.invocations.values()})
    empty = [0, 0, 0, []]

    def med(fn) -> float:
        return statistics.median(fn(index) for index in traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def get(index: int, name: str) -> list:
        return agg.get((index, name), empty)

    out = {}
    for name in tr.TARGETS:
        out[f"{name}.calls"] = (med(lambda i: get(i, name)[0]), "count")
        out[f"{name}.total_s"] = (med(lambda i: get(i, name)[1] / 1e9), "s")
        out[f"{name}.self_s"] = (med(lambda i: get(i, name)[2] / 1e9), "s")
    tolerance, vt = "security.max_tolerable_noise", "finite_size.var_transmission_hat"
    out[f"{tolerance}.evals_per_call"] = (
        med(lambda i: ratio(extra.get((i, "bisection_evals"), 0), get(i, tolerance)[0])), "count")
    out[f"{vt}.distinct_ratio"] = (med(lambda i: ratio(len(set(get(i, vt)[3])), get(i, vt)[0])), "fraction")
    rows = wl.units(run.configs).get("keyrate", 0)
    out["gaussian.CovMat4.per_keyrate_row"] = (med(lambda i: ratio(extra.get((i, "keyrate_covmats"), 0), rows)), "count")
    for name in ("simulator.generate_frame", "simulator.empirical_covariance"):
        out[f"{name}.samples_per_s"] = (med(lambda i: ratio(sum(get(i, name)[3]), get(i, name)[1] / 1e9)), "samples/s")
    for name in ("simulator.save_frame_csv", "simulator.load_frame_csv"):
        out[f"{name}.mb_per_s"] = (med(lambda i: ratio(sum(get(i, name)[3]) / 1e6, get(i, name)[1] / 1e9)), "MB/s")
        out[f"{name}.bytes"] = (med(lambda i: sum(get(i, name)[3])), "bytes")

    lat = [(s[tr.END] - s[tr.START]) / 1e3 for s in spans if s[tr.NAME] == "security.asymptotic_key_rate"]
    out["security.asymptotic_key_rate.p50_us"] = (tr.percentile(lat, 50) if lat else 0.0, "us")
    # p99 only where at least ten samples lie beyond it.
    p99_ok = (tr.tail_percentile(len(lat)) or 0.0) >= 99.0
    out["security.asymptotic_key_rate.p99_us"] = (tr.percentile(lat, 99) if p99_ok else 0.0, "us")
    plain, traced_s = cycle_times(run.cycles, False), cycle_times(run.cycles, True)
    out["trace.overhead_frac"] = (statistics.median(traced_s) / statistics.median(plain) - 1.0, "fraction")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _openblas_core() -> str | None:
    """The kernel OpenBLAS picked at run time, when numpy's wheel exposes it."""
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hetqkd", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_core": _openblas_core(),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def write_spans(path: str, spans: list[list]) -> None:
    with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
        fh.write("id,parent,invocation,name,start_ns,end_ns,note\n")
        for s in spans:
            fh.write(",".join("" if v is None else str(v) for v in s) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    try:
        os.makedirs(tmp)
        setup = ([], []) if args.trace else measure_setup(tmp)
        run = Run(cli, args.workload, args.seed, tmp)
        run.loop(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        run.check_counts()
    problems = [p for c in run.cycles for ps in c["problems"].values() for p in ps]
    attempted = sum(len(c["times"]) for c in run.cycles)
    failed = sum(bool(ps) for c in run.cycles for ps in c["problems"].values())
    metrics, named = end_to_end(run, setup) if not args.trace else (layer_metrics(run), {})
    if not args.trace:
        named["peak_rss_mb"] = dict(metrics["peak_rss_mb"], n=1)
    named["error_rate"] = {"value": failed / attempted, "unit": "fraction", "n": attempted}

    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one caller", "configs": run.configs, "environment": environment(),
        "setup_samples_s": setup[0], "setup_probes_s": setup[1], "cycles": run.cycles,
        "metrics": metrics, "named": named,
        "problems": problems,
    }
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        write_spans(stem + "-spans.csv.gz", run.tracer.spans)

    plain = len(cycle_times(run.cycles, False))
    print(f"workload {args.workload}, seed {args.seed}: {len(run.cycles)} cycles "
          f"({plain} untraced), closed loop with one caller")
    for name, m in named.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<10} n={m['n']}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    print(f"  record: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
