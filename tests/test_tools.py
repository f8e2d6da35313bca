"""Checks of the scripts under tools/ that need no benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_reports_a_failed_run(tmp_path):
    # pair 1 runs the base first; its run.py fails at once, so the change's
    # benchmark never starts
    run = tmp_path / "perfbench" / "run.py"
    run.parent.mkdir()
    run.write_text("import sys\n"
                   "print('noise', file=sys.stderr)\n"
                   "sys.exit('ImportError: no module named fracfield')\n")
    bench_pairs = _bench_pairs()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", str(tmp_path), "--workload", "annulus-multiplicity",
                          "--pairs", "1", "--seed", "7"])
    message = str(exc.value.code)
    assert message.startswith("base run at seed 7 exited 1")
    assert message.endswith("noise\nImportError: no module named fracfield")


def test_bench_pairs_prints_each_sides_sorted_runs(tmp_path, monkeypatch, capsys):
    # stand-in runs: the base's peak_rss_mb has two modes, which the median
    # and quartiles alone would hide
    values = {"base": iter([110.0, 113.0, 109.8, 113.1]),
              "change": iter([103.5, 103.4, 103.6, 103.5])}

    def run_once(side, tree, workload, seed, seconds):
        metric = {"value": next(values[side])}
        return {"correct": True, "failed": 0,
                "metrics": {"wall_s": metric, "setup_s": metric, "peak_rss_mb": metric}}

    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "annulus-multiplicity",
                             "--pairs", "4", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(next(line for line in lines if line.startswith("  peak_rss_mb:")))
    assert lines[at + 1] == "    base runs, sorted: 109.8 110 113 113.1"
    assert lines[at + 2] == "    change runs, sorted: 103.4 103.5 103.5 103.6"
