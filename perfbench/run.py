"""fracfield benchmark: CLI task workloads timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload annulus-multiplicity --seed 0 --seconds 10 --trace 0

One process runs one task at a time in a closed loop, through
``fracfield.runner.run`` with ``workers=1`` (the CLI default) and the default
OpenBLAS pool. A round runs every task of the workload once; rounds repeat
until ``--seconds`` have passed, and at least the workload's ``min_rounds``
times (one untraced/traced pair with ``--trace 1``). Round k passes
``seed + k * ROUND_STRIDE`` as ``solver.rng_seed`` (see workloads.py).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``wall_s``, the mean round wall time from config load to outputs written
(rounds differ in rng_seed, so the mean is the expected time per round);
``setup_s``, the median of SETUP_SAMPLES fresh interpreters that import
numpy, scipy and fracfield, validate the configs and make the first LAPACK
call; and ``peak_rss_mb``, the process's peak resident memory in MiB.

``--trace 1`` alternates untraced and traced rounds on the same inputs. The
traced ones wrap each layer's public functions from outside (spans.py) and
give the per-layer metrics, as medians over traced rounds; spans are written
to .perfbench_out/<run>/spans.jsonl. ``trace.overhead_s`` is the median
traced-minus-untraced round wall time, and every traced task must write
results JSON byte-identical to its untraced twin.

Every task's results JSON is checked (checks.py). The last stdout line is a
JSON object: ``correct`` (no check failed other than the defects listed in
reference.json), ``attempted`` and ``failed`` (checks evaluated and failed, so
failed/attempted is the check_fail_ratio), and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
PROBE_SIZE = 200

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, round_seed, round_tasks  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0 (it becomes solver.rng_seed)")
    return args


def blas_threads() -> int:
    """Smallest thread pool among the OpenBLAS copies loaded (numpy's, scipy's)."""
    paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                found.append(fn())
                break
    if not found:
        raise RuntimeError("no OpenBLAS library loaded; cannot report blas.threads")
    return min(found)


def probe_matrix():
    import numpy as np

    a = np.random.default_rng(0).standard_normal((PROBE_SIZE, PROBE_SIZE))
    return a + a.T


def measure_setup() -> list[dict]:
    """SETUP_SAMPLES cold set-ups, each a fresh interpreter timed whole."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        samples.append({"wall_s": wall, **json.loads(proc.stdout.strip().splitlines()[-1])})
    return samples


class Bench:
    def __init__(self, args: argparse.Namespace):
        from fracfield import runner
        from fracfield.config import load_config

        self.runner = runner
        self.load_config = load_config
        self.args = args
        self.name = args.workload
        self.workload = WORKLOADS[args.workload]
        self.out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.reference = json.loads(checks.REFERENCE_PATH.read_text())
        self.known = self.reference["known_defects"]
        self.attempted = 0
        self.failed: list[str] = []
        self.tracer = spans.Tracer()

    def record(self, outcome: dict[str, bool]) -> None:
        for check_id, ok in outcome.items():
            self.attempted += 1
            if not ok:
                self.failed.append(check_id)

    def run_round(self, k: int, traced: bool) -> tuple[float, dict[str, bytes]]:
        """One round; returns its wall time and each task's results JSON bytes."""
        rng_seed = round_seed(self.args.seed, k)
        tag = f"r{k}-{'traced' if traced else 'plain'}"
        wall = 0.0
        written = {}
        for task in round_tasks(self.workload, k):
            task_dir = self.out / tag / task.label
            task_dir.mkdir(parents=True)
            cfg_path = task_dir / "config.json"
            cfg_path.write_text(json.dumps(task.config))
            with self.tracer.active(tag) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                cfg = self.load_config(cfg_path, task=task.kind, seed=rng_seed)
                self.runner.run(cfg, task_dir, workers=1)
                wall += time.perf_counter() - t0
            data = (task_dir / task.results_file).read_bytes()
            written[task.label] = data
            results = json.loads(data)["results"]
            self.record(checks.check_task(self.reference, self.name, task.label,
                                          task.kind, results))
        return wall, written

    def loop(self, body, min_rounds: int) -> int:
        """Closed loop: body(k) until --seconds have passed and min_rounds ran."""
        k = 0
        start = time.perf_counter()
        while k < min_rounds or time.perf_counter() - start < self.args.seconds:
            body(k)
            k += 1
        return k


def layer_metrics(t: dict[str, dict]) -> dict[str, float]:
    """Flatten one traced round's per-layer totals into metric values."""
    m: dict[str, float] = {}
    for name, d in t.items():
        m[f"{name}.s"] = d["s"]
        m[f"{name}.self_s"] = d["self_s"]
        m[f"{name}.calls"] = d["calls"]
    spectral = t["spectral.assemble_and_decompose"]
    gs = t["nehari.ground_state"]
    ms = t["topology.multiplicity_search"]
    m["spectral.n_max"] = spectral["max"].get("n", 0)
    m["spectral.phi_mb"] = spectral["max"].get("phi_bytes", 0) / 2**20
    m["nehari.ground_state.iterations"] = gs["sum"].get("iterations", 0)
    m["nehari.ground_state.iterations_max"] = gs["max"].get("iterations", 0)
    m["nehari.ground_state.converged_ratio"] = (
        gs["sum"]["converged"] / gs["calls"] if gs["calls"] else 0.0)
    m["topology.band_saddle.sweeps"] = t["topology.band_saddle"]["sum"].get("sweeps", 0)
    m["topology.annulus_level.iterations"] = t["topology.annulus_level"]["sum"].get("iterations", 0)
    m["topology.class_ratio"] = (
        ms["sum"]["classes"] / ms["sum"]["converged"] if ms["sum"].get("converged") else 0.0)
    m["morse.hessian_dim_sum"] = t["morse.hessian_spectrum"]["sum"].get("dim", 0)
    m["persist.bytes_written"] = (t["persist.write_results_json"]["sum"].get("bytes", 0)
                                  + t["persist.write_csv"]["sum"].get("bytes", 0))
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracfield" / "__init__.py").is_file():
        print(f"error: fracfield sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import scipy.linalg

    bench = Bench(args)
    scipy.linalg.eigh(probe_matrix())  # the first LAPACK call stays out of wall_s
    values: dict[str, float] = {}
    lines = [f"workload {args.workload}, seed {args.seed}: one process, closed loop, workers=1"]

    if args.trace == 0:
        walls: list[float] = []
        rounds = bench.loop(lambda k: walls.append(bench.run_round(k, traced=False)[0]),
                            bench.workload.min_rounds)
        q1, med, q3 = (statistics.quantiles(walls, n=4, method="inclusive")
                       if rounds > 1 else walls * 3)
        values["wall_s"] = statistics.fmean(walls)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines.append(f"round wall: median {med:.3f} s, q1 {q1:.3f}, q3 {q3:.3f}, n={rounds} rounds")
    else:
        per_round: list[dict[str, float]] = []
        overheads: list[float] = []

        def pair(k: int) -> None:
            order = (False, True) if (args.seed + k) % 2 == 0 else (True, False)
            got = {traced: bench.run_round(k, traced) for traced in order}
            overheads.append(got[True][0] - got[False][0])
            bench.record({f"{args.workload}/{label}/traced_results_identical":
                          got[True][1][label] == data for label, data in got[False][1].items()})
            per_round.append(layer_metrics(bench.tracer.totals(f"r{k}-traced")))

        rounds = bench.loop(pair, 1)
        for name in per_round[0]:
            values[name] = statistics.median(r[name] for r in per_round)
        values["trace.overhead_s"] = statistics.median(overheads)
        values["trace.spans"] = len(bench.tracer.spans) / rounds
        bench.tracer.write(bench.out / "spans.jsonl")
        lines.append(f"{rounds} untraced/traced round pairs; per-layer values are "
                     "medians over traced rounds (busy s / self s / calls):")
        for name in spans.LAYERS:
            lines.append(f"  {name:34s} {values[name + '.s']:9.4f} "
                         f"{values[name + '.self_s']:9.4f} {values[name + '.calls']:6.0f}")

    # after the rounds, so that neither meets a machine still waking from idle
    t0 = time.perf_counter()
    scipy.linalg.eigh(probe_matrix())
    values["blas.probe_ms"] = 1e3 * (time.perf_counter() - t0)
    values["blas.threads"] = blas_threads()
    setup = measure_setup()
    values["setup_s"] = statistics.median(s["wall_s"] for s in setup)
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    values["setup.first_lapack_s"] = statistics.median(s["first_lapack_s"] for s in setup)
    lines.append(f"{values['blas.threads']} BLAS threads; probe eigh "
                 f"{values['blas.probe_ms']:.2f} ms; setup_s samples: "
                 + ", ".join(f"{s['wall_s']:.3f}" for s in setup))

    kinds = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in kinds}
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    unexpected = [c for c in bench.failed if c not in bench.known]
    lines.append(f"check_fail_ratio: {len(bench.failed)}/{bench.attempted} "
                 f"(failed/attempted checks)")
    for check_id in sorted(set(bench.failed)):
        note = bench.known.get(check_id, "NOT a known defect")
        lines.append(f"  failed {bench.failed.count(check_id)}x {check_id}: {note}")
    print("\n".join(lines))
    print(json.dumps({"correct": not unexpected, "attempted": bench.attempted,
                      "failed": len(bench.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
