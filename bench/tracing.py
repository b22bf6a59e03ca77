"""Per-layer spans and counts, recorded from outside the library.

`Tracer.install` replaces each layer's public functions with timing
wrappers, both in the module that defines them and under every name
another helix_pst module imported them as (`helix_pst.cli.
eigendecompose_numeric`, `helix_pst.scan.find_pst_times`, ...), so
calls within a module are caught too. Spans are kept in memory and
reduced to metrics once the workload is done.

A span's parent is the open span on its own thread; a span opened on a
sweep's pool thread has the sweep span as its parent. Self time is a
span's duration minus its children's, floored at zero: a sweep whose
points run on two pool threads has children that add up to more than
its own wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# layer (module of helix_pst) -> the public functions timed in it
LAYERS = {
    "hamiltonian": ("build_hamiltonian",),
    "spectral": ("eigendecompose_numeric",),
    "transfer": ("projector_overlaps", "transfer_report", "probability_profile",
                 "transition_probability"),
    "attainability": ("independent_constraints", "check_attainability"),
    "scan": ("find_pst_times", "tau_min", "gamma_sweep", "coupling_sweep_L0"),
    "cli": ("run_command",),
}
SWEEPS = ("gamma_sweep", "coupling_sweep_L0")
MIB = float(1 << 20)


def _grid_points(args, kwargs) -> int:
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    return math.ceil(cfg.horizon / cfg.coarse_step + 0.5)


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


# counts taken from a call's arguments and result, outside its span
COUNTERS = {
    "find_pst_times": lambda c, args, kwargs, out: c.update(
        {"scan.grid_points": _grid_points(args, kwargs), "scan.events": len(out)}),
    "eigendecompose_numeric": lambda c, args, kwargs, out: c.update(
        {"spectral.groups": len(out), "spectral.projector_bytes": _array_bytes(out)}),
    "probability_profile": lambda c, args, kwargs, out: c.update(
        {"transfer.profile_points": len(out)}),
    "independent_constraints": lambda c, args, kwargs, out: c.update(
        {"attainability.constraints": len(out)}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, start, end, parent span]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent = None

    def install(self) -> None:
        import helix_pst

        modules = [helix_pst] + [importlib.import_module(f"helix_pst.{m}") for m in LAYERS]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"helix_pst.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:  # renamed or removed: its span stays empty
                    continue
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        counter = COUNTERS.get(name)
        is_sweep = name in SWEEPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else self._pool_parent]
            stack.append(span)
            if is_sweep:
                self._pool_parent = span
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if is_sweep:
                    self._pool_parent = None
                with self._lock:
                    self.spans.append(span)
                    self.counts[f"{name}.calls"] += 1
            if counter is not None:
                with self._lock:
                    counter(self.counts, args, kwargs, out)
            return out

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span and count recorded so far."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[id(s[4])] += s[3] - s[2]
        total = defaultdict(float)
        self_time = defaultdict(float)
        sweep_busy = 0.0
        for s in self.spans:
            duration = s[3] - s[2]
            total[s[1]] += duration
            self_time[s[0]] += max(0.0, duration - child[id(s)])
            if s[1] in SWEEPS:
                sweep_busy += child[id(s)]
        c = self.counts
        sweep_s = sum(total[n] for n in SWEEPS)
        out = {
            "scan.find_s": total["find_pst_times"],
            "scan.grid_points": c["scan.grid_points"],
            "scan.events": c["scan.events"],
            "scan.sweep_s": sweep_s,
            "scan.sweep_busy_ratio": sweep_busy / sweep_s if sweep_s else 0.0,
            "spectral.decomp_s": total["eigendecompose_numeric"],
            "spectral.calls": c["eigendecompose_numeric.calls"],
            "spectral.groups": c["spectral.groups"],
            "spectral.projector_mb": c["spectral.projector_bytes"] / MIB,
            "transfer.overlaps_s": total["projector_overlaps"],
            "transfer.overlaps_calls": c["projector_overlaps.calls"],
            "transfer.profile_s": total["probability_profile"],
            "transfer.profile_points": c["transfer.profile_points"],
            "cli.bytes_out": c["cli.bytes_out"],
            "cli.commands": c["run_command.calls"],
            "hamiltonian.build_s": total["build_hamiltonian"],
            "hamiltonian.calls": c["build_hamiltonian.calls"],
            "attainability.check_s": total["independent_constraints"]
            + total["check_attainability"],
            "attainability.constraints": c["attainability.constraints"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out
