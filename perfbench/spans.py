"""Outside-in tracing: spans around fracfield's layer functions.

``runner``, ``nehari`` and ``topology`` import functions by name, so a
wrapper must replace every module attribute bound to the original function,
not just the defining one. The wrappers read the clock and the returned
objects and change nothing else, so a traced task writes the same results
JSON as an untraced one; run.py checks that byte for byte.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Layer functions (module.function under fracfield), each with what to count
# from its return value. model's element-wise functions are too fine to wrap
# from outside and stay inside the nehari and morse spans; extension serves
# only verify-extension, which no workload runs.
LAYERS = {
    "runner.run": None,
    "domain.build_domain": None,
    "spectral.assemble_and_decompose": lambda b: {"n": b.dom.n_interior,
                                                   "phi_bytes": b.dom.n_interior * b.K * 8},
    "nehari.ground_state": lambda r: {"iterations": r.iterations, "converged": int(r.converged)},
    "nehari.level_c": None,
    "nehari.limit_level_estimate": None,
    "topology.multiplicity_search": lambda r: {"classes": r.n_classes, "converged": r.n_converged},
    "topology.orbit_classes": None,
    "topology.symmetry_group": None,
    "topology.band_saddle": lambda r: {"sweeps": r.sweeps},
    "topology.annulus_level": lambda r: {"iterations": r.record.iterations},
    "morse.classify_records": None,
    "morse.hessian_spectrum": lambda r: {"dim": int(r.eigenvalues.size)},
    "morse.ray_second_derivative": None,
    "persist.write_results_json": lambda p: {"bytes": p.stat().st_size},
    "persist.write_csv": lambda p: {"bytes": p.stat().st_size},
}


class Tracer:
    """Keeps spans in memory: name, start, end, parent span and run id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._run: str | None = None

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "run": self._run, "start": time.perf_counter()}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span["counts"] = count(result)
            return result
        return traced

    @contextmanager
    def active(self, run_id: str):
        """Patch every import site of every layer function for the block."""
        self._run = run_id
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("fracfield.")]
        patched = []
        for qualname, count in LAYERS.items():
            module, _, attr = qualname.partition(".")
            original = getattr(sys.modules[f"fracfield.{module}"], attr)
            wrapper = self._wrap(qualname, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        patched.append((m, key, original))
        try:
            yield
        finally:
            for m, key, original in patched:
                setattr(m, key, original)
            self._run = None

    def totals(self, run_id: str) -> dict[str, dict]:
        """Per layer: calls, busy and self seconds, and summed/max counts.

        Busy time sums the spans of a name that have no ancestor of the same
        name; self time is a span's duration minus that of its direct
        children (one thread, so children never overlap).
        """
        spans = [s for s in self.spans if s["run"] == run_id]
        by_id = {s["id"]: s for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "sum": {}, "max": {}} for name in LAYERS}
        for s in spans:
            t = out[s["name"]]
            dur = s["end"] - s["start"]
            t["calls"] += 1
            t["self_s"] += dur - child_time.get(s["id"], 0.0)
            if not _has_ancestor_named(s, by_id):
                t["s"] += dur
            for key, v in s.get("counts", {}).items():
                t["sum"][key] = t["sum"].get(key, 0) + v
                t["max"][key] = max(t["max"].get(key, v), v)
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def _has_ancestor_named(span: dict, by_id: dict[int, dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] == span["name"]:
            return True
        parent = by_id[parent]["parent"]
    return False
