"""In-memory spans around the public functions of each ``hetqkd`` module.

The wrappers are installed from outside the package: every module under
``hetqkd`` that holds a binding to a traced function (``from .x import y``
copies the name) gets the wrapper in its namespace, and classes are traced
through their ``__init__``, which also covers ``dataclasses.replace``.
Nothing under ``src/`` changes.  A span is one row
``[id, parent, invocation, name, start_ns, end_ns, note]``; ``note`` carries
what a layer metric needs besides time (argument key, samples or bytes).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Traced callables, keyed by span name ``<module>.<name>``.
TARGETS = (
    "cli.cmd_keyrate", "cli.cmd_tolerance", "cli.cmd_finite", "cli.cmd_simulate", "cli.cmd_estimate",
    "channel.build_pm_covariance", "channel.eb_from_measured",
    "gaussian.symplectic_eigenvalues", "gaussian.von_neumann_entropy", "gaussian.schur_condition",
    "gaussian.CovMat4",
    "params.PhysicalParams",
    "info.true_mi", "info.ignorant_mi",
    "compensation.symmetrize", "compensation.alice_transform_angles", "compensation.apply_transform_frame",
    "security.asymptotic_key_rate", "security.holevo_from_gamma", "security.max_tolerable_noise",
    "finite_size.optimize_fraction", "finite_size.finite_key_rate", "finite_size.var_transmission_hat",
    "simulator.generate_frame", "simulator.empirical_covariance", "simulator.save_frame_csv",
    "simulator.load_frame_csv",
    "estimation.estimate_all",
)

ID, PARENT, INV, NAME, START, END, NOTE = range(7)
PACKAGE = "hetqkd"
#: Tail percentiles tried from the highest down (``tail_percentile``).
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _arg_key(args, kwargs):
    return hash((args, tuple(sorted(kwargs.items()))))


def _file_bytes(args, kwargs):
    path = os.fspath(kwargs.get("path", args[1] if len(args) > 1 else args[0]))
    return os.path.getsize(path)


# What each span notes besides its time, computed outside the timed interval.
_BEFORE = {
    "finite_size.var_transmission_hat": _arg_key,
    "simulator.empirical_covariance": lambda args, kwargs: args[0].m,
    "simulator.load_frame_csv": _file_bytes,
}
_AFTER = {
    "simulator.generate_frame": lambda args, kwargs, result: result.m,
    "simulator.save_frame_csv": lambda args, kwargs, result: _file_bytes(args, kwargs),
}


class Tracer:
    """Collects spans in memory; one caller, one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.invocation, name, 0, 0, None]
            spans.append(rec)
            if before is not None:
                rec[NOTE] = before(args, kwargs)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[NOTE] = after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every target while the block runs."""
        undo = []
        try:
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
            for target in TARGETS:
                mod_name, attr = target.split(".")
                orig = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
                if isinstance(orig, type):
                    undo.append((orig, "__init__", orig.__init__))
                    orig.__init__ = self.wrap(target, orig.__init__)
                    continue
                wrapper = self.wrap(target, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s in spans:
        covered, reach = 0, s[START]
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def tail_percentile(n: int) -> float | None:
    """Highest of ``TAIL_PERCENTILES`` with at least ten of n samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            return q
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
