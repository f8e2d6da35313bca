"""The benchmark's workloads: which CLI tasks each runs, on which configs.

Every config goes through the same path as the CLI: written to a JSON file,
read back by ``fracfield.config.load_config`` with the run's seed as the
``--seed`` override, then executed by ``fracfield.runner.run`` with
``workers=1``. Each workload's ``why`` is also recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

MODEL = {"alpha": 0.5, "p": 2.0, "theta": 3.0, "q": 3.5}


def _annulus(lam: float) -> dict:
    return {"shape": "annulus", "params": {"R": 1.0, "r": 0.4}, "lambda": lam, "h": 0.25}


@dataclass(frozen=True)
class Task:
    """One task invocation of a round: a label, a CLI config, its results file."""

    label: str
    config: dict
    results_file: str

    @property
    def kind(self) -> str:
        return self.config["task"]


@dataclass(frozen=True)
class Workload:
    """why is recorded in BENCHMARK.json; an untraced run makes at least min_rounds rounds."""

    why: str
    tasks: tuple[Task, ...]
    min_rounds: int = 2


def _multiplicity(lam: float) -> Task:
    cfg = {"task": "multiplicity", "domain": _annulus(lam), "model": MODEL}
    return Task(f"lambda={lam:g}", cfg, "multiplicity.json")


WORKLOADS = {
    "annulus-multiplicity": Workload(
        why="the paper's headline census at lambda 6 and 8 (n=1496, 2696); "
            "dense eigh, Hessian spectra and the band saddle dominate",
        tasks=(_multiplicity(6.0), _multiplicity(8.0)),
        # its outputs do not depend on rng_seed and a round already takes
        # 15-20 s, so one round per run keeps a run short
        min_rounds=1,
    ),
    "disk-descent": Workload(
        why="solve on the R=2 disk, h=0.125, K=793, 8 starts: multistart retracted "
            "descent is about 85% of wall time, the basis little",
        tasks=(Task("R=2", {
            "task": "solve",
            "domain": {"shape": "disk", "params": {"R": 2.0}, "lambda": 1.0, "h": 0.125},
            "model": MODEL,
            "solver": {"K": 793, "n_starts": 8},
        }, "solve.json"),),
        # one solve takes 24k-35k descent iterations depending on rng_seed, so a
        # run averages four seeds' solves to keep its spread across seeds down
        min_rounds=4,
    ),
    "annulus-sweep": Workload(
        why="sweep-lambda over lambda 2, 4, 6 and balls 1, 2, 4: many small "
            "eigh calls and penalized descent, no band saddle or Hessian",
        tasks=(Task("lambdas=2,4,6", {
            "task": "sweep-lambda",
            "domain": _annulus(4.0),
            "model": MODEL,
            "solver": {"n_starts": 4},
            "sweep": {"lambdas": [2.0, 4.0, 6.0], "radii": [1.0, 2.0, 4.0]},
        }, "sweep.json"),),
    ),
}

# Round k of a run with seed s passes rng_seed s + k * ROUND_STRIDE, so round 0
# runs the seed as given and distinct seeds below the stride never share inputs.
ROUND_STRIDE = 1_000_003


def round_seed(seed: int, k: int) -> int:
    return seed + k * ROUND_STRIDE


def round_tasks(workload: Workload, k: int) -> tuple[Task, ...]:
    """The round's tasks, in an order that alternates between rounds of a run.

    Not between seeds: peak memory depends on the order, so a seed-dependent
    order would split peak_rss_mb into two modes across runs.
    """
    return workload.tasks[::-1] if k % 2 else workload.tasks
