"""Paired benchmark runs of a base tree and this tree, summarized per end-to-end metric.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --base path/to/base/checkout \
        --workload annulus-multiplicity --pairs 10 --seed 15001

Each pair runs ``perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in the base checkout and once in this one, each from its own
root, one after the other, with T the run_seconds of this tree's
BENCHMARK.json, so both sides run for the same time. Even pairs run the base
first and odd pairs this tree first, so neither side always meets the machine
in the state the other left.

One line per run as it finishes, then one line per end-to-end metric of
this tree's BENCHMARK.json: each side's median and quartiles, how many pairs
the change won in the metric's better direction, and the change between the
medians next to the base's interquartile range. Under each such line come
each side's per-run values, sorted, so that a bimodal metric shows its
modes. The last line says whether every run reported ``correct: true`` and
how many checks failed on each side.
A run that exits nonzero stops the pairs: the script prints its side, seed,
exit code and the tail of its stderr, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STDERR_TAIL = 20


def run_once(side: str, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced benchmark run in tree, as a dict.

    A run that exits nonzero ends the script with exit status 1, after
    printing to stderr the side, the seed, the run's exit code and the last
    STDERR_TAIL lines of its stderr.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        sys.exit(f"{side} run at seed {seed} exited {proc.returncode}; its stderr ends:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the base checkout")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    trees = {"base": args.base.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            out = run_once(side, trees[side], args.workload, args.seed + i, spec["run_seconds"])
            runs[side].append(out)
            values = ", ".join(f"{k} {m['value']:.4g}" for k, m in out["metrics"].items())
            print(f"pair {i + 1} {side}: correct {out['correct']}, {values}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}:")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        print(f"  {name}: base {b2:.4g} ({b1:.4g}-{b3:.4g}) -> change {c2:.4g} "
              f"({c1:.4g}-{c3:.4g}) {metric['unit']}; change better in {wins}/{args.pairs}; "
              f"median change {c2 - b2:+.3g} vs base IQR {b3 - b1:.3g}")
        for side, values in (("base", base), ("change", change)):
            print(f"    {side} runs, sorted: {' '.join(f'{v:.4g}' for v in sorted(values))}")
    correct = all(r["correct"] for side in runs.values() for r in side)
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"  all correct: {correct}; failed checks: base {failed['base']}, "
          f"change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
