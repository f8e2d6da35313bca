"""sha256 of the results JSON that every shipped config writes, for one source tree.

Usage, from the root of a checkout:

    python3 tools/results_identity.py --src path/to/checkout/src --seed 0

Imports fracfield from --src (default: this checkout's src) and runs, one
after another with workers=1, the built-in default config of solve, morse,
sweep-lambda, multiplicity and verify-extension, then every task of the
workloads in perfbench/workloads.py. Each goes through
fracfield.config.load_config, with --seed as the rng_seed override, and
fracfield.runner.run, as the CLI and the benchmark run them. One line per
results file gives its sha256 and the config's label. Run it on two trees
with the same seed and BLAS thread count: equal lines mean byte-identical
results JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the fracfield package (default: ./src)")
    parser.add_argument("--seed", type=int, default=0, help="rng_seed override (default: 0)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from fracfield import runner
    from fracfield.config import load_config

    with tempfile.TemporaryDirectory() as tmp:
        for label, task, config in shipped_configs():
            task_dir = Path(tmp) / label
            task_dir.mkdir(parents=True, exist_ok=True)
            cfg_path = None
            if config is not None:
                cfg_path = task_dir / "config.json"
                cfg_path.write_text(json.dumps(config))
            runner.run(load_config(cfg_path, task=task, seed=args.seed), task_dir, workers=1)
            for path in sorted(task_dir.glob("*.json")):
                if path.name != "config.json":
                    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}/{path.name}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
