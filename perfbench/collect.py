"""Repeat run.py over seeds and summarize: median, quartiles and spread.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 0-9 [--trace 0|1]
                                 [--write perfbench/baseline.json --label TEXT]

Runs are sequential, one process at a time, alternating workload order
between seeds. For each workload and metric it prints the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and the spread, which is
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. With
``--write`` it merges every run's figures and the machine facts into a
baseline file under the given label.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine_facts() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    blas = {}
    for path in sorted({ln.split()[-1] for ln in open("/proc/self/maps") if "openblas" in ln.lower()}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_char_p
                blas[Path(path).name] = fn().decode()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
        "openblas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="inclusive range such as 0-9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", type=Path, default=None)
    p.add_argument("--label", default="unlabelled")
    args = p.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[w].append(result)
            figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                               if k in ("wall_s", "setup_s", "peak_rss_mb", "runner.run.s"))
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed/attempted={result['failed']}/{result['attempted']} {figures}",
                  flush=True)

    summary = {}
    for w, rs in runs.items():
        summary[w] = {}
        for name in rs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in rs])
            s["unit"] = rs[0]["metrics"][name]["unit"]
            summary[w][name] = s
            bound = bounds.get(name)
            if bound is not None:
                print(f"{w:22s} {name:12s} median {s['median']:.4g} {s['unit']} "
                      f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f} "
                      f"(bound {bound}, n={s['n']})")
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        summary[w]["check_fail_ratio"] = {"failed": failed, "attempted": attempted,
                                          "all_correct": all(r["correct"] for r in rs)}
        print(f"{w:22s} check_fail_ratio {failed}/{attempted} failed/attempted checks, "
              f"correct in {sum(r['correct'] for r in rs)}/{len(rs)} runs")
        if "runner.run.s" in summary[w]:
            total = summary[w]["runner.run.s"]["median"]
            summary[w]["share_of_task_time"] = {
                name[:-2]: s["median"] / total for name, s in summary[w].items()
                if name.endswith(".s") and name != "runner.run.s"}
    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.exists() else {}
        entry = doc.setdefault(args.label, {})
        entry["machine"] = machine_facts()
        entry.setdefault("trace1" if args.trace else "trace0", {}).update(
            {w: {"summary": summary[w], "runs": runs[w]} for w in workloads})
        args.write.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
