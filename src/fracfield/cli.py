"""Command-line interface: subcommands, flags, exit-code mapping.

Exit codes: 0 success, 2 configuration invalid (message names the offending
field), 3 task failure (solver or pipeline error, stage named). The --seed
flag overrides solver.rng_seed before hashing so outputs are stamped with
what actually ran.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import TASKS, load_config
from .errors import ConfigInvalid, TaskFailed
from .runner import run

log = logging.getLogger("fracfield")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TASK = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfield",
        description="Fractional scalar-field solvers on expanding planar domains",
    )
    sub = parser.add_subparsers(dest="task", required=True, metavar="|".join(TASKS))
    for task in TASKS:
        sp = sub.add_parser(task, help=f"run the {task} task")
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="JSON run configuration (built-in default if omitted)")
        sp.add_argument("--out", default="fracfield_out", metavar="DIR",
                        help="output directory (default: fracfield_out)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override solver.rng_seed")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, task=args.task, seed=args.seed)
        run(cfg, args.out)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TaskFailed as exc:
        print(f"task error: {exc}", file=sys.stderr)
        return EXIT_TASK
    if not args.quiet:
        log.info("task %s finished; outputs in %s", cfg.task, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
