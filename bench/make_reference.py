"""Rewrite ``reference.json``: the default-seed values the gate compares.

    python3 bench/make_reference.py

Run it only when a change to the program is meant to change its outputs,
and say in the change why the values moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads as wl


def main() -> int:
    cli = run.load_cli()
    tmp = os.path.join(run.OUT, f"reference-{os.getpid()}")
    reference = {}
    try:
        for workload in wl.WORKLOADS:
            configs = wl.make_configs(workload, run.DEFAULT_SEED)
            cfg_dir = os.path.join(tmp, workload, "configs")
            run.write_configs(configs, cfg_dir)
            reference[workload] = {}
            for inv in wl.cycle(workload, run.DEFAULT_SEED, configs, cfg_dir, os.path.join(tmp, workload)):
                code, _, err = run.call_cli(cli, inv.argv)
                if code != 0:
                    print(f"error: {inv.command} exited {code}: {err}", file=sys.stderr)
                    return 1
                reference[workload][inv.command] = checks.reference_values(inv.command, inv.out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
