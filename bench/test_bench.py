"""Self-tests of the benchmark at tiny sizes: percentile rule, self-time
arithmetic, call-count formulas and the wrappers that count the calls.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stdout

import pytest

import checks
import run
import tracer as tr
import workloads as wl

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


def span(sid, parent, start, end, name="x", inv=0):
    return [sid, parent, inv, name, start, end, None]


def test_tail_percentile_needs_ten_samples_beyond():
    assert tr.tail_percentile(10_000) == 99.9
    assert tr.tail_percentile(1_000) == 99.0
    assert tr.tail_percentile(999) == 90.0
    assert tr.tail_percentile(100) == 90.0
    assert tr.tail_percentile(20) == 50.0
    assert tr.tail_percentile(19) is None


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert tr.percentile(values, 50) == 50
    assert tr.percentile(values, 99) == 99
    assert tr.percentile(values, 100) == 100
    assert tr.percentile([7.0], 99) == 7.0


def test_each_step_is_paired_with_the_probes_around_it():
    assert run.paired([1.0, 3.0, 2.0]) == [2.0, 2.5]


def test_self_time_subtracts_covered_child_interval():
    spans = [
        span(0, -1, 0, 100),
        span(1, 0, 10, 30),
        span(2, 0, 20, 40),   # overlaps its sibling: counted once
        span(3, 1, 12, 18),   # grandchild: covered by span 1, not by 0
        span(4, 0, 90, 120),  # runs past its parent: clipped
    ]
    assert tr.self_times(spans) == [100 - 30 - 10, 20 - 6, 20, 6, 30]


def test_configs_are_seeded_and_fixed_in_size():
    for workload in wl.WORKLOADS:
        a, b = wl.make_configs(workload, 5), wl.make_configs(workload, 6)
        assert a == wl.make_configs(workload, 5)
        assert a != b
        assert wl.units(a) == wl.units(b)


def test_count_formulas():
    configs = {
        "keyrate": {"eta_grid": [0.2, 0.4, 0.6], "eps_grid": [0.0, 0.01], "theta_deg_values": [0.0, 5.0]},
        "tolerance": {"eta_grid": [0.5, 0.7], "theta_deg_values": [0.0, 5.0, 9.0], "variants": ["TT", "II"]},
        "finite": {"losses_db": [2.0, 3.0], "block_sizes": [1e6, 1e7, 1e8]},
        "simulate": {"m": 100, "frames": 3},
    }
    assert wl.expected_calls(configs) == {
        ("keyrate", "security.asymptotic_key_rate"): 4 * 3 * 2 * 2,
        ("tolerance", "security.max_tolerable_noise"): 2 * 3 * 2,
        ("finite", "finite_size.optimize_fraction"): 6,
        ("finite", "finite_size.finite_key_rate"): 20 * 6,
        ("simulate", "simulator.generate_frame"): 3,
        ("simulate", "simulator.save_frame_csv"): 3,
        ("estimate", "simulator.load_frame_csv"): 3,
    }


TINY_CONFIGS = {
    "asymptotic": {
        "keyrate": {"params": {"phi_deg": 0.0}, "eta_grid": [0.3, 0.8], "eps_grid": [0.01],
                    "theta_deg_values": [0.0, 12.0]},
        "tolerance": {"eta_grid": [0.6], "theta_deg_values": [0.0, 12.0], "variants": ["TT", "II"]},
    },
    "finite": {"finite": {"losses_db": [3.0], "block_sizes": [1e7, 1e9]}},
    "montecarlo": {"simulate": {"params": {"eps": 0.01}, "m": 3000, "frames": 2, "block_sizes": [1e8]}},
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_match_config(workload, tmp_path):
    from hetqkd import cli

    configs = TINY_CONFIGS[workload]
    run.write_configs(configs, str(tmp_path / "cfg"))
    tracer = tr.Tracer()
    commands = []
    with tracer.installed():
        for inv in wl.cycle(workload, 3, configs, str(tmp_path / "cfg"), str(tmp_path / "out")):
            tracer.invocation = len(commands)
            commands.append(inv.command)
            with redirect_stdout(io.StringIO()):
                assert cli.main(list(inv.argv)) == 0
    counts = {}
    for s in tracer.spans:
        key = (commands[s[tr.INV]], s[tr.NAME])
        counts[key] = counts.get(key, 0) + 1
    expected = wl.expected_calls(configs)
    assert expected and all(counts.get(k, 0) == v for k, v in expected.items())
    assert all(s[tr.END] >= s[tr.START] for s in tracer.spans)


def test_uninstall_restores_every_binding():
    from hetqkd import cli, finite_size, gaussian, security

    before = (cli.asymptotic_key_rate, finite_size.asymptotic_key_rate, gaussian.CovMat4.__init__)
    with tr.Tracer().installed():
        assert cli.asymptotic_key_rate is not before[0]
        assert finite_size.asymptotic_key_rate is not before[1]
    assert (cli.asymptotic_key_rate, finite_size.asymptotic_key_rate, gaussian.CovMat4.__init__) == before
    assert security.asymptotic_key_rate is before[0]


def test_reference_covers_every_command():
    import json

    with open(checks.REFERENCE, encoding="ascii") as fh:
        reference = json.load(fh)
    for workload in wl.WORKLOADS:
        assert set(reference[workload]) == set(wl.units(wl.make_configs(workload, 0)))


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "finite", "--seconds", "1"]) == 2
    assert not os.path.exists(tmp_path / "src")
