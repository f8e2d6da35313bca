"""Checks of the scripts under tools/ that need no benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_bench_pairs_reports_a_failed_run(tmp_path):
    # pair 1 runs the base first; its run.py fails at once, so the change's
    # benchmark never starts
    run = tmp_path / "perfbench" / "run.py"
    run.parent.mkdir()
    run.write_text("import sys\n"
                   "print('noise', file=sys.stderr)\n"
                   "sys.exit('ImportError: no module named fracfield')\n")
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", str(tmp_path), "--workload", "annulus-multiplicity",
                          "--pairs", "1", "--seed", "7"])
    message = str(exc.value.code)
    assert message.startswith("base run at seed 7 exited 1")
    assert message.endswith("noise\nImportError: no module named fracfield")
