"""Configuration validation, exit codes, output files, and determinism."""

from __future__ import annotations

import copy
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracfield import nehari, runner, spectral, topology
from fracfield.cli import main
from fracfield.config import (
    TASKS,
    canonical_json,
    default_config,
    load_config,
    validate_config,
)
from fracfield.domain import build_domain
from fracfield.errors import ConfigInvalid
from fracfield.model import PinnedEnergy
from fracfield.nehari import level_c
from fracfield.spectral import SpectralBasis


def small_solve_config(**overrides) -> dict:
    """Disk config small enough that a solve run takes well under a second."""
    cfg = default_config("solve")
    cfg["domain"]["h"] = 0.15
    cfg["solver"]["n_starts"] = 2
    cfg.update(overrides)
    return cfg


def write_config(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestValidation:
    def test_defaults_validate_for_every_task(self):
        for task in TASKS:
            rc = validate_config(default_config(task))
            assert rc.task == task
            assert len(rc.config_hash) == 64

    def test_missing_alpha_names_the_field(self):
        cfg = default_config("solve")
        del cfg["model"]["alpha"]
        with pytest.raises(ConfigInvalid, match=r"model\.alpha"):
            validate_config(cfg)

    def test_unknown_top_level_field(self):
        cfg = default_config("solve")
        cfg["extras"] = 1
        with pytest.raises(ConfigInvalid, match="extras"):
            validate_config(cfg)

    def test_unknown_solver_field(self):
        cfg = default_config("solve")
        cfg["solver"]["momentum"] = 0.9
        with pytest.raises(ConfigInvalid, match=r"solver\.momentum"):
            validate_config(cfg)

    @pytest.mark.parametrize("task, section, key, value", [
        pytest.param("solve", "domain", "basis", "polar", id="domain-basis-polar"),
        pytest.param("solve", "model", "nonlinearity", "cubic", id="model-nonlinearity-cubic"),
        # a misspelt radii ran on the default radii, hashed as if it were read
        pytest.param("sweep-lambda", "sweep", "radius", [1.0, 3.0, 9.0], id="sweep-radius"),
        pytest.param("sweep-lambda", "sweep", "bogus", 1, id="sweep-bogus"),
    ])
    def test_unknown_domain_or_model_field(self, task, section, key, value):
        # not dropped from canonical and config_hash: rejected like solver's
        cfg = default_config(task)
        cfg[section][key] = value
        with pytest.raises(ConfigInvalid, match=rf"unknown field \"{section}\.{key}\""):
            validate_config(cfg)

    def test_task_conflict(self):
        cfg = default_config("solve")
        with pytest.raises(ConfigInvalid, match="subcommand"):
            validate_config(cfg, task="morse")

    def test_bad_task_value(self):
        cfg = default_config("solve")
        cfg["task"] = "meditate"
        with pytest.raises(ConfigInvalid, match="meditate"):
            validate_config(cfg)

    def test_annulus_radii_ordering(self):
        cfg = default_config("multiplicity")
        cfg["domain"]["params"] = {"R": 0.3, "r": 0.4}
        with pytest.raises(ConfigInvalid, match="must be < R"):
            validate_config(cfg)

    def test_alpha_range(self):
        cfg = default_config("solve")
        cfg["model"]["alpha"] = 1.5
        with pytest.raises(ConfigInvalid, match=r"model\.alpha"):
            validate_config(cfg)
        cfg["model"]["alpha"] = 1.0
        with pytest.raises(ConfigInvalid, match=r"model\.alpha"):
            validate_config(cfg)

    def test_exponent_bounds(self):
        # at alpha = 0.5, p + 1 must stay below the critical exponent 4
        for p, bound in ((1.0, "> 1.0"), (3.0, "< 3.0"), (5.0, "< 3.0")):
            cfg = default_config("solve")
            cfg["model"]["p"] = p
            with pytest.raises(ConfigInvalid, match=rf"model\.p.*{bound}"):
                validate_config(cfg)
        cfg = default_config("solve")
        cfg["model"]["theta"] = 2.0
        with pytest.raises(ConfigInvalid, match=r"model\.theta"):
            validate_config(cfg)

    @pytest.mark.parametrize("bad", [["disk"], {"disk": 1}, 1, None])
    def test_shape_must_be_a_known_name(self, bad):
        cfg = default_config("solve")
        cfg["domain"]["shape"] = bad
        with pytest.raises(ConfigInvalid, match=r"domain\.shape"):
            validate_config(cfg)

    def test_shape_params_exact_keys(self):
        cfg = default_config("solve")
        cfg["domain"]["params"] = {"R": 1.0, "bogus": 2.0}
        with pytest.raises(ConfigInvalid, match="bogus"):
            validate_config(cfg)

    def test_sweep_preconditions(self):
        cfg = default_config("sweep-lambda")
        cfg["sweep"]["lambdas"] = [2.0]
        with pytest.raises(ConfigInvalid, match=r"sweep\.lambdas"):
            validate_config(cfg)
        cfg = default_config("sweep-lambda")
        cfg["sweep"]["radii"] = [1.0, 2.0]
        with pytest.raises(ConfigInvalid, match=r"sweep\.radii"):
            validate_config(cfg)
        cfg = default_config("sweep-lambda")
        del cfg["sweep"]
        with pytest.raises(ConfigInvalid, match='"sweep"'):
            validate_config(cfg)

    @pytest.mark.parametrize("lambdas", [[6.0, 4.0, 2.0], [2.0, 4.0, 4.0]])
    def test_sweep_lambdas_strictly_increasing(self, lambdas):
        # the localization threshold is read off the rows in config order
        cfg = default_config("sweep-lambda")
        cfg["sweep"]["lambdas"] = lambdas
        with pytest.raises(ConfigInvalid, match=r"sweep\.lambdas.*strictly increasing"):
            validate_config(cfg)

    @pytest.mark.parametrize("key", ["lambdas", "radii"])
    @pytest.mark.parametrize("bad", [-1.0, "3", True])
    def test_sweep_element_named_by_index(self, key, bad):
        cfg = default_config("sweep-lambda")
        cfg["sweep"][key][1] = bad
        with pytest.raises(ConfigInvalid) as info:
            validate_config(cfg)
        assert f'"sweep.{key}[1]"' in str(info.value)
        assert '.v"' not in str(info.value)

    def test_sweep_section_rejected_elsewhere(self):
        cfg = default_config("solve")
        cfg["sweep"] = {"lambdas": [2.0, 4.0], "radii": [1.0, 2.0, 4.0]}
        with pytest.raises(ConfigInvalid, match="only valid for task sweep-lambda"):
            validate_config(cfg)

    def test_multiplicity_needs_annulus(self):
        cfg = default_config("multiplicity")
        cfg["domain"] = default_config("solve")["domain"]
        with pytest.raises(ConfigInvalid, match="annulus"):
            validate_config(cfg)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigInvalid, match="object"):
            validate_config([1, 2, 3])

    @pytest.mark.parametrize("task,section", [
        ("solve", "output"), ("solve", "solver"), ("sweep-lambda", "sweep"),
    ])
    @pytest.mark.parametrize("bad", [[1, 2], "yes", 3])
    def test_sections_must_be_objects(self, task, section, bad):
        cfg = default_config(task)
        cfg[section] = bad
        with pytest.raises(ConfigInvalid, match=f'"{section}" must be an object'):
            validate_config(cfg)

    @pytest.mark.parametrize("bad", ["no", 0, 1, None])
    def test_dump_fields_must_be_bool(self, bad):
        cfg = default_config("solve")
        cfg["output"]["dump_fields"] = bad
        with pytest.raises(ConfigInvalid, match=r"output\.dump_fields"):
            validate_config(cfg)
        cfg["output"]["dump_fields"] = True
        assert validate_config(cfg).dump_fields is True

    def test_unknown_output_field(self):
        cfg = default_config("solve")
        cfg["output"]["dump_feilds"] = True
        with pytest.raises(ConfigInvalid, match=r"output\.dump_feilds"):
            validate_config(cfg)


class TestKBound:
    # validate_config checks solver.K against the domain at each lambda the
    # task runs, for every task whose config sets it

    @pytest.mark.parametrize("task", ["solve", "morse", "verify-extension", "report"])
    def test_k_below_the_node_count_is_invalid(self, task):
        cfg = default_config(task)
        d = cfg["domain"]
        n = build_domain(d["shape"], d["params"], lam=d["lambda"], h=d["h"]).n_interior
        cfg["solver"]["K"] = n - 1
        with pytest.raises(ConfigInvalid, match=rf'"solver\.K".* {n} interior nodes'):
            validate_config(cfg)
        cfg["solver"]["K"] = n
        assert validate_config(cfg).K == n

    def test_an_empty_grid_is_skipped_and_becomes_its_rows_error(self, tmp_path):
        # at lambda=0.3 the h=0.15 disk keeps fewer than 25 nodes: the K
        # check skips that grid, and the sweep reports it as the row's error
        cfg = default_config("sweep-lambda")
        cfg["domain"] = small_solve_config()["domain"]
        cfg["solver"]["n_starts"] = 2
        cfg["sweep"] = {"lambdas": [0.3, 1.0], "radii": [0.5, 0.75, 1.0]}
        d = cfg["domain"]
        cfg["solver"]["K"] = build_domain(d["shape"], d["params"], lam=1.0,
                                          h=d["h"]).n_interior
        rc = validate_config(cfg)
        rows = runner.run(rc, tmp_path)["rows"]
        assert rows[0]["lambda"] == 0.3
        assert rows[0]["error"].startswith("EmptyMask: ")
        assert rows[1]["lambda"] == 1.0 and "error" not in rows[1]


class TestLoadConfig:
    def test_none_path_gives_defaults(self):
        rc = load_config(None, task="solve", seed=None)
        assert rc.task == "solve"
        assert rc.shape == "disk"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="does not exist"):
            load_config(str(tmp_path / "nope.json"), task="solve", seed=None)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="not valid JSON"):
            load_config(str(path), task="solve", seed=None)

    def test_seed_override_changes_hash(self):
        base = load_config(None, task="solve", seed=None)
        seeded = load_config(None, task="solve", seed=7)
        assert seeded.rng_seed == 7
        assert seeded.canonical["solver"]["rng_seed"] == 7
        assert seeded.config_hash != base.config_hash

    @pytest.mark.parametrize("bad", [[1, 2], "fast"])
    def test_seed_override_with_non_object_solver(self, tmp_path, bad):
        cfg = default_config("solve")
        cfg["solver"] = bad
        with pytest.raises(ConfigInvalid, match='"solver" must be an object'):
            load_config(write_config(tmp_path, cfg), seed=3)

    def test_seed_override_with_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigInvalid, match="root must be a JSON object"):
            load_config(str(path), task="solve", seed=3)

    def test_hash_is_sha256_of_canonical_json(self):
        rc = load_config(None, task="solve", seed=None)
        blob = canonical_json(rc.canonical).encode()
        assert rc.config_hash == hashlib.sha256(blob).hexdigest()

    def test_canonical_json_is_key_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


def test_run_takes_one_worker_only(tmp_path):
    # tasks run in the calling thread; run keeps its workers keyword for
    # perfbench/run.py, which passes 1, and refuses any other value up front
    cfg = load_config(None, task="verify-extension", seed=None)
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers must be 1"):
            runner.run(cfg, tmp_path, workers=workers)
    assert not any(tmp_path.iterdir())


class TestExitCodes:
    def test_config_error_exits_2_and_names_field(self, tmp_path, capsys):
        cfg = default_config("solve")
        del cfg["model"]["alpha"]
        path = write_config(tmp_path, cfg)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_non_string_shape_exits_2_and_names_field(self, tmp_path, capsys):
        cfg = default_config("solve")
        cfg["domain"]["shape"] = ["disk"]
        out = tmp_path / "o"
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--quiet"])
        assert code == 2
        assert "domain.shape" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["output", "sweep"])
    def test_non_object_section_exits_2(self, tmp_path, capsys, section):
        cfg = default_config("sweep-lambda")
        cfg[section] = [1, 2]
        path = write_config(tmp_path, cfg)
        code = main(["sweep-lambda", "--config", path, "--out", str(tmp_path / "o"),
                     "--seed", "3", "--quiet"])
        assert code == 2
        assert f'"{section}"' in capsys.readouterr().err

    @pytest.mark.parametrize("radii", [[1.0, 4.0, 2.0], [1.0, 1.0, 2.0]])
    def test_sweep_radii_out_of_order_exit_2(self, tmp_path, capsys, radii):
        cfg = default_config("sweep-lambda")
        cfg["sweep"]["radii"] = radii
        out = tmp_path / "o"
        code = main(["sweep-lambda", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--quiet"])
        assert code == 2
        assert "sweep.radii" in capsys.readouterr().err
        assert not out.exists()

    def test_task_failure_exits_3(self, tmp_path, capsys):
        # h too coarse for the unit disk: the mask keeps too few nodes
        cfg = small_solve_config()
        cfg["domain"]["h"] = 0.45
        path = write_config(tmp_path, cfg)
        code = main(["solve", "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        assert "task error" in capsys.readouterr().err

    def test_unconverged_seeding_ball_exits_3(self, tmp_path, capsys):
        # the ball state is solved within solver.max_iter like every start
        cfg = default_config("multiplicity")
        cfg["solver"]["max_iter"] = 3
        code = main(["multiplicity", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "AllStartsFailed: the seeding ball of radius 1.08 did not converge" in err
        assert "max_iter=3" in err

    def test_solve_k_below_node_count_exits_2(self, tmp_path, capsys):
        cfg = small_solve_config()
        d = cfg["domain"]
        n = build_domain(d["shape"], d["params"], lam=d["lambda"], h=d["h"]).n_interior
        cfg["solver"]["K"] = n - 1
        out = tmp_path / "o"
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "solver.K" in err and f"{n} interior nodes" in err
        assert not out.exists()
        # at the node count the basis is the full span it always is
        cfg["solver"]["K"] = n
        code = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--quiet"])
        assert code == 0

    def test_sweep_k_below_a_rows_node_count_fails_without_error_rows(self, tmp_path, capsys,
                                                                      monkeypatch):
        # K covers the lambda=2 annulus (156 nodes) but not lambda=4 (664):
        # the second row fails the task instead of becoming an error row, and
        # it fails before the limit level or the first row runs a descent
        cfg = default_config("sweep-lambda")
        cfg["solver"]["K"] = 300
        out = tmp_path / "o"
        levels = []

        def spy(*args, **kwargs):
            levels.append(args)
            return level_c(*args, **kwargs)

        monkeypatch.setattr(nehari, "level_c", spy)
        monkeypatch.setattr(runner, "level_c", spy)
        code = main(["sweep-lambda", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--quiet"])
        assert code == 2
        assert levels == []
        err = capsys.readouterr().err
        assert "solver.K" in err and "664 interior nodes" in err
        assert not out.exists()

    def test_report_with_nothing_exits_3(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path / "empty"), "--quiet"])
        assert code == 3
        assert "nothing to report" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"schema_version": 1, "resu', '{"results": {}}'],
                             ids=["truncated", "no-level"])
    def test_report_on_unreadable_results_exits_3(self, tmp_path, capsys, text):
        out = tmp_path / "o"
        out.mkdir()
        (out / "solve.json").write_text(text)
        code = main(["report", "--out", str(out), "--quiet"])
        assert code == 3
        assert "solve.json" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracfield", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "multiplicity" in proc.stdout

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transcend"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("vx")
    assert main(["verify-extension", "--out", str(out), "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def solve_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    cfg = small_solve_config()
    cfg["output"] = {"dump_fields": True}
    path = write_config(tmp, cfg)
    out = tmp / "out"
    assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def multi_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("multi")
    assert main(["multiplicity", "--out", str(out), "--quiet"]) == 0
    return out


class TestVerifyExtensionOutputs:
    def test_csv_row_for_alpha_half_mu_one(self, out_dir):
        lines = (out_dir / "verify-extension.csv").read_text().splitlines()
        assert lines[0].startswith("# schema_version ")
        assert lines[1].startswith("# config_hash ")
        header = lines[2].split(",")
        assert header == ["alpha", "mu", "ratio", "passed", "abs_rel_err"]
        target = None
        for line in lines[3:]:
            cells = line.split(",")
            if float(cells[0]) == 0.5 and float(cells[1]) == 1.0:
                target = cells
        assert target is not None
        assert target[2] == "1.0000"
        assert target[3] == "1"
        assert float(target[4]) < 1e-5

    def test_json_closed_form_checks(self, out_dir):
        doc = json.loads((out_dir / "verify-extension.json").read_text())
        res = doc["results"]
        assert res["all_passed"] is True
        assert res["psi_sup_error_alpha_half"] <= 1e-8
        assert res["flux_limit_rel_error_alpha_half"] <= 1e-6
        assert len(res["rows"]) == 6

    def test_json_carries_schema_and_hash(self, out_dir):
        doc = json.loads((out_dir / "verify-extension.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["config_hash"]) == 64
        assert doc["config"]["task"] == "verify-extension"


class TestSolveOutputs:
    def test_solve_json_record(self, solve_out):
        doc = json.loads((solve_out / "solve.json").read_text())
        res = doc["results"]
        assert res["best"]["converged"] is True
        assert res["best"]["positive"] is True
        assert res["level"] > 0.0
        assert res["n_converged"] >= 1
        assert doc["config_hash"] == doc["config_hash"].lower()

    def test_solve_csv_header(self, solve_out):
        lines = (solve_out / "solve.csv").read_text().splitlines()
        assert lines[2].split(",") == [
            "lambda", "level", "residual", "iterations",
            "barycenter_x", "barycenter_y", "morse_index",
        ]
        assert len(lines) > 3

    def test_field_dump_round_trip(self, solve_out):
        flat = np.loadtxt(solve_out / "solution.txt")
        nx, ny, h = int(flat[0]), int(flat[1]), flat[2]
        vals = flat[3:]
        assert vals.size == nx * ny
        grid = vals.reshape(ny, nx)
        assert grid.max() > 0.0
        assert h == pytest.approx(0.15)
        # zero outside the mask, so the border rows stay empty
        assert np.all(grid[0] == 0.0) and np.all(grid[-1] == 0.0)

    def test_rerun_is_byte_identical(self, solve_out, tmp_path):
        cfg = small_solve_config()
        cfg["output"] = {"dump_fields": True}
        path = write_config(tmp_path, cfg)
        out2 = tmp_path / "out2"
        assert main(["solve", "--config", path, "--out", str(out2), "--quiet"]) == 0
        first = (solve_out / "solve.json").read_bytes()
        second = (out2 / "solve.json").read_bytes()
        assert hashlib.sha256(first).hexdigest() == hashlib.sha256(second).hexdigest()

    def test_seed_flag_changes_stamped_config(self, tmp_path):
        cfg = small_solve_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "seeded"
        assert main(["solve", "--config", path, "--out", str(out),
                     "--seed", "3", "--quiet"]) == 0
        doc = json.loads((out / "solve.json").read_text())
        assert doc["config"]["solver"]["rng_seed"] == 3


class TestMultiplicityAndReport:
    def test_class_structure(self, multi_out):
        res = json.loads((multi_out / "multiplicity.json").read_text())["results"]
        assert res["n_classes"] == 2
        assert res["ball_level"] > 0.0
        for cl in res["classes"]:
            assert cl["below_ball_level"] is True
            assert cl["beta_in_plus"] is True
            assert cl["record"]["morse_index"] == 1
        assert res["band_saddle"]["record"]["morse_index"] == 2
        assert res["census"]["matches"] is True

    def test_saddle_block(self, multi_out):
        # the saddle is the x-mirror's fixed-point minimum, converged at the
        # config's tol on the full-space residual; its step count is the
        # record's iterations, so no band fields are written
        doc = json.loads((multi_out / "multiplicity.json").read_text())
        saddle = doc["results"]["band_saddle"]
        assert sorted(saddle) == ["nondegenerate", "null_count", "record"]
        rec = saddle["record"]
        assert rec["seed_tag"] == "mirror-x-fixed"
        assert rec["converged"] and rec["residual"] <= doc["config"]["solver"]["tol"]
        assert saddle["nondegenerate"] and saddle["null_count"] == 0

    def test_multiplicity_csv_header(self, multi_out):
        lines = (multi_out / "multiplicity.csv").read_text().splitlines()
        assert lines[2].split(",") == [
            "id", "energy", "bary_x", "bary_y", "morse_index",
            "orbit_size", "below_ball_level",
        ]

    def test_report_aggregates(self, multi_out):
        assert main(["report", "--out", str(multi_out), "--quiet"]) == 0
        doc = json.loads((multi_out / "report.json").read_text())
        assert doc["results"]["tasks"] == ["multiplicity"]
        assert doc["results"]["summary"]["multiplicity"]["census_matches"] is True
        md = (multi_out / "report.md").read_text()
        assert "multiplicity" in md


@pytest.fixture(scope="module")
def morse_out(tmp_path_factory):
    """One directory with the default morse run beside a solve and a
    verify-extension run, for report to aggregate."""
    tmp = tmp_path_factory.mktemp("morse")
    out = tmp / "out"
    assert main(["morse", "--out", str(out), "--quiet"]) == 0
    path = write_config(tmp, small_solve_config())
    assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert main(["verify-extension", "--out", str(out), "--quiet"]) == 0
    return out


class TestMorseAndReport:
    def test_one_class_of_index_one(self, morse_out):
        res = json.loads((morse_out / "morse.json").read_text())["results"]
        [rec] = res["records"]
        assert rec["class_size"] == 4
        assert rec["morse_index"] == 1
        assert rec["null_count"] == 0
        assert rec["nondegenerate"] is True
        assert rec["ray_second_derivative"] < 0.0
        assert res["census"]["counted"] == 1
        assert res["census"]["matches"] is True

    def test_census_keys_match_multiplicity(self, morse_out, multi_out):
        # both tasks write the one MorseCountReport
        census = [json.loads((out / name).read_text())["results"]["census"]
                  for out, name in ((morse_out, "morse.json"), (multi_out, "multiplicity.json"))]
        assert list(census[0]) == list(census[1])

    def test_morse_csv_header(self, morse_out):
        lines = (morse_out / "morse.csv").read_text().splitlines()
        assert lines[2].split(",") == [
            "lambda", "level", "residual", "iterations", "barycenter_x",
            "barycenter_y", "morse_index", "null_count",
        ]
        assert lines[3].split(",")[-2:] == ["1", "0"]

    def test_report_summarizes_each_task(self, morse_out):
        assert main(["report", "--out", str(morse_out), "--quiet"]) == 0
        res = json.loads((morse_out / "report.json").read_text())["results"]
        assert res["tasks"] == ["morse", "solve", "verify-extension"]
        solve = json.loads((morse_out / "solve.json").read_text())["results"]
        assert res["summary"] == {
            "solve": {"level": solve["level"], "converged": True},
            "verify_extension": {"all_passed": True},
            "morse": {"counted": 1, "matches": True},
        }
        md = (morse_out / "report.md").read_text().splitlines()
        assert [line.split(":")[0] for line in md[2:]] == [
            "- solve", "- verify-extension", "- morse"]


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    """The default sweep-lambda run's output directory."""
    out = tmp_path_factory.mktemp("sweep") / "out"
    assert main(["sweep-lambda", "--out", str(out), "--quiet"]) == 0
    return out


class TestSweepOutputs:
    def test_rows_say_whether_the_pinned_level_converged(self, sweep_out):
        rows = json.loads((sweep_out / "sweep.json").read_text())["results"]["rows"]
        assert [r["lambda"] for r in rows] == [2.0, 4.0]
        assert all(r["annulus_converged"] is True for r in rows)
        # the flag is in the JSON only; the CSV columns stay as they were
        lines = (sweep_out / "sweep.csv").read_text().splitlines()
        assert lines[2].split(",") == [
            "lambda", "c_level", "ball_level", "annulus_level", "solution_count",
            "min_barycenter_margin", "localized", "runtime_s",
        ]

    def test_an_under_resolved_ball_falls_back_to_bump_starts(self, sweep_out):
        # at lambda=2 the comparison ball (radius 0.54) keeps too few nodes at
        # h=0.25: no ball level to gate on, so no margin and no localization,
        # and the 8 bump starts add to the 4 random ones
        row = json.loads((sweep_out / "sweep.json").read_text())["results"]["rows"][0]
        assert row["lambda"] == 2.0
        assert row["ball_level"] is None
        assert row["min_barycenter_margin"] is None
        assert row["localized"] is False
        assert row["solution_count"] == 12

    def test_bump_starts_descend_once_per_orbit(self, sweep_out, tmp_path, monkeypatch):
        # the 8 mid-circle bumps of the lambda=2 row form 2 orbits under the
        # mask's symmetries: 2 descents give all 8 records, and the row's
        # count and level are those of the sweep that ran them all
        descended = []

        def spy(*args, seed_tag, **kwargs):
            descended.append(seed_tag)
            return nehari.ground_state(*args, seed_tag=seed_tag, **kwargs)

        monkeypatch.setattr(runner, "ground_state", spy)
        row = runner.run(load_config(None, task="sweep-lambda"), tmp_path)["rows"][0]
        assert [t for t in descended if t.startswith("bump-")] == ["bump-0", "bump-1"]
        want = json.loads((sweep_out / "sweep.json").read_text())["results"]["rows"][0]
        assert row["solution_count"] == want["solution_count"] == 12
        assert row["c_level"] == want["c_level"]

    def test_max_iter_bounds_the_ball_levels(self, tmp_path, monkeypatch):
        # solver.max_iter reaches the level_c runs of the limit level's balls
        cfg = default_config("sweep-lambda")
        cfg["domain"] = small_solve_config()["domain"]
        cfg["solver"]["n_starts"] = 2
        cfg["solver"]["max_iter"] = 5000
        cfg["sweep"] = {"lambdas": [0.3, 1.0], "radii": [0.5, 0.75, 1.0]}
        budgets = []

        def spy(*args, **kwargs):
            budgets.append(kwargs.get("max_iter"))
            return level_c(*args, **kwargs)

        monkeypatch.setattr(nehari, "level_c", spy)
        runner.run(validate_config(cfg), tmp_path)
        assert budgets == [5000] * 3

    def test_each_sweep_basis_builds_its_green_blocks_once(self, tmp_path, monkeypatch):
        # each basis the sweep builds (the limit level's balls, the rows'
        # annuli, the seeding balls) builds the L_b and G_b of each of its
        # distinct blocks in its build and never again; the sweep's only
        # Lanczos solves stay its pinned levels' checks, on the nodal pencil
        # of a PinnedEnergy
        bases, builds, solves = [], [], []
        init, build = SpectralBasis.__init__, spectral._block_operators
        monkeypatch.setattr(SpectralBasis, "__init__",
                            lambda self, *a: bases.append(self) or init(self, *a))
        monkeypatch.setattr(spectral, "_block_operators",
                            lambda *a: builds.append(len(bases)) or build(*a))
        eigenpairs = topology._smallest_eigenpairs
        monkeypatch.setattr(topology, "_smallest_eigenpairs",
                            lambda energy, *a, **kw: solves.append(type(energy))
                            or eigenpairs(energy, *a, **kw))
        runner.run(load_config(None, task="sweep-lambda"), tmp_path)
        assert solves and set(solves) == {PinnedEnergy}
        assert len(bases) >= 5
        # the builds before basis k's are its own: as many as its distinct blocks
        want = [k for k, b in enumerate(bases)
                for _ in {id(L) for L in b.operator_blocks}]
        assert builds == want

    def test_report_summarizes_the_sweep(self, sweep_out):
        assert main(["report", "--out", str(sweep_out), "--quiet"]) == 0
        res = json.loads((sweep_out / "report.json").read_text())["results"]
        limit = json.loads((sweep_out / "sweep.json").read_text())["results"]["limit_level"]
        assert res["tasks"] == ["sweep"]
        assert res["summary"] == {"sweep": {"limit_level": limit["value"], "rows": 2}}
        md = (sweep_out / "report.md").read_text().splitlines()
        assert md[2:] == [f"- sweep: 2 rows, limit level {limit['value']:.9g}"]


class TestJsonHygiene:
    def test_no_timestamps_anywhere(self, tmp_path):
        out = tmp_path / "o"
        assert main(["verify-extension", "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "verify-extension.json").read_text())

        def walk(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    assert "time" not in k.lower()
                    assert "date" not in k.lower()
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(doc)

    def test_results_json_round_trips_canonically(self, tmp_path):
        out = tmp_path / "o"
        assert main(["verify-extension", "--out", str(out), "--quiet"]) == 0
        text = (out / "verify-extension.json").read_text()
        assert canonical_json(json.loads(text)) == text

    def test_default_config_deep_copies(self):
        a = default_config("solve")
        b = default_config("solve")
        a["domain"]["h"] = 99.0
        assert b["domain"]["h"] != 99.0
        c = copy.deepcopy(b)
        validate_config(b)
        assert b == c  # validation must not mutate its input
