"""Compare the results of two commits, workload by workload.

    python3 bench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``bench/run.py`` wrote into ``.bench_out/results/`` of one checkout.  For
every end-to-end metric and every per-command figure it prints both
medians over the seeds, the change, and the base's own quartile spread,
and marks a change worse than the bound in ``BENCHMARK.json``.  The
``<command>_probes`` figures split ``cycle_probes`` by command with the
machine's drift cancelled, so a gain in one command that costs another
shows there; the raw throughputs beside them carry the drift.  It warns
when the two sides ran on different BLAS kernels or library versions,
because then the numbers compare machines as much as commits.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ENV_KEYS = ("blas_core", "blas_version", "numpy", "python", "nproc", "OPENBLAS_CORETYPE")


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="ascii") as fh:
            records.append(json.load(fh))
    return records


def values(records: list[dict], workload: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        if r["workload"] == workload:
            for name, m in {**r["metrics"], **r["named"]}.items():
                out.setdefault(name, []).append(m["value"])
    return out


def spread(vals: list[float]) -> float:
    if len(vals) < 2:
        return float("nan")
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no trace0 records on one side", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for key in ENV_KEYS:
        seen = {str(r["environment"].get(key)) for r in base + new}
        if len(seen) > 1:
            print(f"WARNING: {key} differs between runs: {sorted(seen)}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        a, b = values(base, workload), values(new, workload)
        print(f"{workload}: base n={len(a.get('cycle_s', []))}, new n={len(b.get('cycle_s', []))}")
        for name in a:
            if name not in b:
                continue
            ma, mb = statistics.median(a[name]), statistics.median(b[name])
            change = (mb - ma) / ma if ma else float("nan")
            flag = ""
            if name in spec:
                worse = change if spec[name]["better"] == "lower" else -change
                flag = "  WORSE THAN BOUND" if worse > spec[name]["bound"] else ""
            print(f"  {name:<24} base {ma:>12.5g}  new {mb:>12.5g}  change {change:+8.2%}  "
                  f"base spread {spread(a[name]):.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
