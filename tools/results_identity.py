"""sha256 of the results JSON that every shipped config writes, for one source tree.

Usage, from the root of a checkout:

    python3 tools/results_identity.py --src path/to/checkout/src --seed 0
    python3 tools/results_identity.py --seed 0 --against path/to/base/src

Imports fracfield from --src (default: this checkout's src) and runs, one
after another with workers=1, the built-in default config of solve, morse,
sweep-lambda, multiplicity and verify-extension, then every task of the
workloads in perfbench/workloads.py. Each goes through
fracfield.config.load_config, with --seed as the rng_seed override, and
fracfield.runner.run, as the CLI and the benchmark run them. One line per
results file gives its sha256 and the config's label. Run it on two trees
with the same seed and BLAS thread count: equal lines mean byte-identical
results JSON. --out keeps the results files under a directory.

--against BASE runs the configs under BASE and under --src, each in its own
process, and compares the results file by file instead: one line per file
with the largest difference between corresponding floats a and b, as
|a - b| / max(|a|, |b|, 1), and where it is, then one indented line for every
other difference (integers, strings, booleans, nulls, keys, list lengths).
The floor of 1 keeps quantities that are rounding noise themselves, such as
the off-axis barycenter coordinate of an axis state, from reading as large
relative changes. That tells a change at rounding level apart from a change
in what the tasks find.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TASKS = ("solve", "morse", "sweep-lambda", "multiplicity", "verify-extension")


def shipped_configs() -> list[tuple[str, str, dict | None]]:
    """(label, task, config) per shipped config; None means the task's built-in default."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    configs = [(f"default/{task}", task, None) for task in DEFAULT_TASKS]
    for name, workload in WORKLOADS.items():
        configs += [(f"{name}/{t.label}", t.kind, t.config) for t in workload.tasks]
    return configs


def run_configs(src: Path, seed: int, out: Path) -> None:
    """Run every shipped config under the fracfield in src; print each results file's sha256."""
    sys.path.insert(0, str(src.resolve()))
    from fracfield import runner
    from fracfield.config import load_config

    for label, task, config in shipped_configs():
        task_dir = out / label
        task_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = None
        if config is not None:
            cfg_path = task_dir / "config.json"
            cfg_path.write_text(json.dumps(config))
        runner.run(load_config(cfg_path, task=task, seed=seed), task_dir, workers=1)
        for path in sorted(task_dir.glob("*.json")):
            if path.name != "config.json":
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}/{path.name}",
                      flush=True)


def _is_float_pair(a, b) -> bool:
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    return numbers and (isinstance(a, float) or isinstance(b, float))


def compare(a, b, path: str, worst: list, other: list[str]) -> None:
    """Walk two JSON values side by side.

    worst holds [difference, path] of the floats that differ most, relative
    above magnitude 1 and absolute below; other collects every difference
    that is not between two floats.
    """
    if _is_float_pair(a, b):
        rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b), 1.0)
        if not math.isfinite(rel):
            other.append(f"{path}: {a!r} -> {b!r}")
        elif rel > worst[0]:
            worst[:] = [rel, path]
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in b:
                other.append(f"{sub}: only in the base")
            elif key not in a:
                other.append(f"{sub}: only in the change")
            else:
                compare(a[key], b[key], sub, worst, other)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", worst, other)
    elif type(a) is not type(b) or a != b:
        if isinstance(a, list) and isinstance(b, list):
            other.append(f"{path}: list of {len(a)} -> list of {len(b)}")
        else:
            other.append(f"{path}: {a!r} -> {b!r}")


def report(base: Path, change: Path) -> None:
    """One line per results file of either tree, then its non-float differences."""
    names = sorted({p.relative_to(d).as_posix() for d in (base, change)
                    for p in d.rglob("*.json") if p.name != "config.json"})
    for name in names:
        a, b = base / name, change / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in the {'base' if a.exists() else 'change'}")
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{name}: byte-identical")
            continue
        worst, other = [0.0, None], []
        compare(json.loads(a.read_text()), json.loads(b.read_text()), "", worst, other)
        floats = (f"max float difference {worst[0]:.2g} at {worst[1]}"
                  if worst[1] is not None else "floats identical")
        print(f"{name}: {floats}, {len(other)} other difference(s)")
        for line in other:
            print(f"    {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the fracfield package (default: ./src)")
    parser.add_argument("--seed", type=int, default=0, help="rng_seed override (default: 0)")
    parser.add_argument("--out", type=Path, default=None,
                        help="keep the results files under this directory")
    parser.add_argument("--against", type=Path, default=None,
                        help="fracfield source of a base tree: compare its results with --src's")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        if args.against is None:
            run_configs(args.src, args.seed, out)
            return 0
        for name, src in (("base", args.against), ("change", args.src)):
            subprocess.run([sys.executable, __file__, "--src", str(src.resolve()),
                            "--seed", str(args.seed), "--out", str(out / name)],
                           check=True, stdout=subprocess.DEVNULL)
        report(out / "base", out / "change")
    return 0


if __name__ == "__main__":
    sys.exit(main())
