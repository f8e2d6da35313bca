"""Task execution behind the CLI: one function per subcommand, shared plumbing.

Each task builds its own bases, each with its model.Energy (_energy), runs the
corresponding library pipeline on that functional, and writes a results JSON
plus a CSV summary through the persist module. All functions return the
results dict they persisted; failures surface as FracfieldError subclasses
for the CLI to map onto exit codes.

Every basis spans its whole grid. solver.K stays in the schema as a bound a
config may state, and config.validate_config checks it before any task runs.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from pathlib import Path

import numpy as np

from .config import RunConfig
from .domain import build_domain
from .errors import EmptyMask, FracfieldError, TaskFailed
from .extension import k_alpha, scaling_check, solve_profile
from .model import Energy
from .morse import (
    classify_records,
    morse_count_check,
    ray_second_derivative,
)
from .nehari import (
    gaussian_bump_seed,
    ground_state,
    level_c,
    limit_level_estimate,
    start_order,
)
from .persist import dump_field, read_results_json, record_summary, write_csv, write_results_json
from .spectral import assemble_and_decompose
from .topology import (
    annulus_level,
    band_saddle,
    moving_mirrors,
    multiplicity_search,
    orbit_classes,
    orbit_records,
)

log = logging.getLogger(__name__)


def _energy(cfg: RunConfig, lam: float | None = None) -> Energy:
    """The task's functional: cfg's exponent on the basis of the configured
    domain at lam (default: the config's)."""
    dom = build_domain(cfg.shape, cfg.params, lam=cfg.lam if lam is None else lam, h=cfg.h)
    return Energy(assemble_and_decompose(dom, alpha=cfg.alpha), cfg.p)


def run_solve(cfg: RunConfig, out_dir: str | Path) -> dict:
    energy = _energy(cfg)
    report = level_c(energy, n_multistarts=cfg.n_starts, tol=cfg.tol,
                     max_iter=cfg.max_iter, rng_seed=cfg.rng_seed)
    records = report.records
    spectra = classify_records(energy, records)
    best = records[0]
    results = {
        "level": report.value,
        "spread": report.spread,
        "n_converged": report.n_converged,
        "n_requested": report.n_requested,
        "best": record_summary(best, spectra[0]),
        "records": [record_summary(r, spec) for r, spec in zip(records, spectra)],
        "null_counts": [spec.null_count for spec in spectra],
    }
    write_results_json(out_dir, "solve", cfg.config_hash, cfg.canonical, results)
    rows = [
        [cfg.lam, r.energy, r.residual, r.iterations,
         r.barycenter[0], r.barycenter[1], spec.morse_index]
        for r, spec in zip(records, spectra)
    ]
    write_csv(out_dir, "solve", cfg.config_hash,
              ["lambda", "level", "residual", "iterations",
               "barycenter_x", "barycenter_y", "morse_index"], rows)
    if cfg.dump_fields:
        dump_field(out_dir, "solution", cfg.config_hash, best.u)
    return results


def run_sweep(cfg: RunConfig, out_dir: str | Path) -> dict:
    limit = limit_level_estimate(cfg.p, cfg.radii, cfg.h, alpha=cfg.alpha, tol=cfg.tol,
                                 rng_seed=cfg.rng_seed, max_iter=cfg.max_iter)
    rows = []
    json_rows = []
    threshold_lambda = None
    for lam in cfg.lambdas:
        t0 = time.perf_counter()
        try:
            row, jrow = _sweep_row(cfg, lam)
        except FracfieldError as exc:
            log.warning("sweep row lambda=%s failed: %s", lam, exc)
            row = [lam, None, None, None, 0, None, 0]
            jrow = {"lambda": lam, "error": f"{type(exc).__name__}: {exc}"}
        runtime = time.perf_counter() - t0
        rows.append(row + [round(runtime, 3)])
        json_rows.append(jrow)
        if jrow.get("localized") and threshold_lambda is None:
            threshold_lambda = lam
        elif not jrow.get("localized"):
            threshold_lambda = None
    results = {
        "limit_level": {"value": limit.value, "error_bar": limit.error_bar,
                        "radii": list(limit.radii), "levels": list(limit.levels)},
        "rows": json_rows,
        "localization_threshold_lambda": threshold_lambda,
    }
    write_results_json(out_dir, "sweep", cfg.config_hash, cfg.canonical, results)
    write_csv(out_dir, "sweep", cfg.config_hash,
              ["lambda", "c_level", "ball_level", "annulus_level", "solution_count",
               "min_barycenter_margin", "localized", "runtime_s"], rows)
    return results


def _annulus_seeding(cfg: RunConfig, lam: float) -> tuple[list[tuple[float, float]], float]:
    """Eight mid-circle seed centers plus the comparison ball radius.

    The radius must satisfy two geometric constraints at once: the ball has to
    fit inside the ring (radius < half-width), and the tube of that radius
    around the ring must not swallow the hole (radius < inner radius), or the
    enlarged set loses the annulus topology and the barycenter localization
    statement goes vacuous. 0.9 keeps both strict under grid rounding.
    """
    R, r = cfg.params["R"], cfg.params["r"]
    mid = 0.5 * (R + r) * lam
    seed_radius = 0.9 * lam * min(0.5 * (R - r), r)
    centers = [(mid * np.cos(k * np.pi / 4), mid * np.sin(k * np.pi / 4))
               for k in range(8)]
    return centers, seed_radius


def _sweep_row(cfg: RunConfig, lam: float):
    energy = _energy(cfg, lam)
    report = level_c(energy, n_multistarts=cfg.n_starts, tol=cfg.tol,
                     max_iter=cfg.max_iter, rng_seed=cfg.rng_seed)
    records = list(report.records)
    n_solutions = report.n_converged
    ball_level = a_level = a_converged = margin = None
    localized = False
    if cfg.shape == "annulus":
        a_rep = annulus_level(energy, tol=cfg.tol, max_iter=cfg.max_iter)
        a_level, a_converged = a_rep.value, a_rep.record.converged
        # random starts pin to grid-commensurate local minima at coarse h, so
        # the level estimate also seeds states on the mid circle and keeps the
        # best of both batches
        centers, seed_radius = _annulus_seeding(cfg, lam)
        try:
            mrep = multiplicity_search(energy, centers, ball_radius=seed_radius,
                                       tol=cfg.tol, max_iter=cfg.max_iter)
        except EmptyMask:
            # comparison ball under-resolved at this h: no level to gate on,
            # but plain bumps at the same centers still steer descent into the
            # one-bump branch; the centers are D4 images of one another, so
            # one descent per orbit gives every bump's record
            bumps = orbit_records(
                energy.basis, centers, [f"bump-{i}" for i in range(len(centers))],
                lambda center, tag: ground_state(
                    energy, gaussian_bump_seed(energy.basis, center, seed_radius),
                    tol=cfg.tol, max_iter=cfg.max_iter, seed_tag=tag))
            converged = [rec for rec in bumps if rec.converged]
            records += converged
            n_solutions += len(converged)
        else:
            records += [cl.representative for cl in mrep.classes]
            n_solutions += mrep.n_converged
            ball_level = mrep.ball_level
            margins = [seed_radius - float(energy.basis.dom.region_distance(rec.barycenter)[0])
                       for rec in records if mrep.below_ball_level(rec.energy)]
            margin = min(margins) if margins else None
            # vacuously-true rows do not count: the flag marks rows where low
            # states exist and all of them sit inside the tube
            localized = bool(margins) and all(m >= 0 for m in margins)
    c_level = min(r.energy for r in records)
    row = [lam, c_level, ball_level, a_level, n_solutions, margin, localized]
    jrow = {
        "lambda": lam,
        "c_level": c_level,
        "ball_level": ball_level,
        "annulus_level": a_level,
        "annulus_converged": a_converged,
        "solution_count": n_solutions,
        "min_barycenter_margin": margin,
        "localized": localized,
    }
    return row, jrow


def run_multiplicity(cfg: RunConfig, out_dir: str | Path) -> dict:
    energy = _energy(cfg)
    dom = energy.basis.dom
    centers, seed_radius = _annulus_seeding(cfg, dom.lam)
    report = multiplicity_search(energy, centers, ball_radius=seed_radius,
                                 tol=cfg.tol, max_iter=cfg.max_iter)

    reps = [cl.representative for cl in report.classes]
    mirrors = moving_mirrors(reps[0].u) if len(report.classes) >= 2 else {}
    srec = band_saddle(energy, reps[0].u, next(iter(mirrors)), tol=cfg.tol,
                       max_iter=cfg.max_iter).saddle if mirrors else None
    spectra = classify_records(energy, reps if srec is None else reps + [srec])

    saddle_info = None
    census_records = list(reps)
    census_spectra = spectra[:len(reps)]
    if srec is not None:
        sspec = spectra[-1]
        saddle_info = {
            "record": record_summary(srec, sspec),
            "null_count": sspec.null_count,
            "nondegenerate": sspec.nondegenerate,
        }
        if srec.converged:
            census_records.append(srec)
            census_spectra.append(sspec)
    census = morse_count_check(census_records, census_spectra, dom)

    classes_json = []
    rows = []
    for k, (rec, spec, cl) in enumerate(zip(reps, spectra, report.classes)):
        below = report.below_ball_level(rec.energy)
        classes_json.append({
            "record": record_summary(rec, spec),
            "orbit_size": cl.orbit_size,
            "below_ball_level": below,
            "beta_in_plus": cl.beta_in_plus,
            "null_count": spec.null_count,
            "nondegenerate": spec.nondegenerate,
        })
        rows.append([k, rec.energy, rec.barycenter[0], rec.barycenter[1],
                     spec.morse_index, cl.orbit_size, below])
    results = {
        "n_classes": report.n_classes,
        "n_seeds": report.n_seeds,
        "n_converged": report.n_converged,
        "ball_radius": report.ball_radius,
        "ball_level": report.ball_level,
        "classes": classes_json,
        "band_saddle": saddle_info,
        "census": dataclasses.asdict(census),
    }
    write_results_json(out_dir, "multiplicity", cfg.config_hash, cfg.canonical, results)
    write_csv(out_dir, "multiplicity", cfg.config_hash,
              ["id", "energy", "bary_x", "bary_y", "morse_index", "orbit_size",
               "below_ball_level"], rows)
    if cfg.dump_fields:
        for k, rec in enumerate(reps):
            dump_field(out_dir, f"class-{k}", cfg.config_hash, rec.u)
    return results


def run_verify_extension(cfg: RunConfig, out_dir: str | Path) -> dict:
    alphas = (0.25, 0.5, 0.75)
    mus = (1.0, 4.0)
    rows = []
    json_rows = []
    for alpha, mu, got, want, rel in scaling_check(alphas, mus):
        passed = abs(rel) < 1e-5
        rows.append([alpha, mu, f"{got / want:.4f}", passed, abs(rel)])
        json_rows.append({"alpha": alpha, "mu": mu, "computed": got,
                          "expected": want, "rel_err": rel, "passed": passed})
    profile = solve_profile(0.5)
    s = np.linspace(0.0, 10.0, 2001)
    sup_err = float(np.max(np.abs(profile.psi(s) - np.exp(-s))))
    flux_err = abs(profile.flux_limit() - k_alpha(0.5)) / k_alpha(0.5)
    results = {
        "rows": json_rows,
        "psi_sup_error_alpha_half": sup_err,
        "flux_limit_rel_error_alpha_half": flux_err,
        "all_passed": bool(all(r["passed"] for r in json_rows)
                           and sup_err <= 1e-8 and flux_err <= 1e-6),
    }
    write_results_json(out_dir, "verify-extension", cfg.config_hash, cfg.canonical, results)
    write_csv(out_dir, "verify-extension", cfg.config_hash,
              ["alpha", "mu", "ratio", "passed", "abs_rel_err"], rows)
    if not results["all_passed"]:
        raise TaskFailed("extension identity checks failed; see verify-extension.json")
    return results


def run_morse(cfg: RunConfig, out_dir: str | Path) -> dict:
    energy = _energy(cfg)
    basis = energy.basis
    report = level_c(energy, n_multistarts=cfg.n_starts, tol=cfg.tol,
                     max_iter=cfg.max_iter, rng_seed=cfg.rng_seed)
    # multistarts rediscover the same critical point; the census must count
    # distinct orbit classes, so only class representatives enter it, each
    # its class's first start in seed order
    in_seed_order = sorted(report.records, key=lambda r: start_order(r.seed_tag))
    classes = orbit_classes(basis, in_seed_order)
    reps = [cl[0] for cl in classes]
    spectra = classify_records(energy, reps)
    rows = []
    recs_json = []
    for rec, spec, cl in zip(reps, spectra, classes):
        rsd = ray_second_derivative(energy, rec.u, tol=1e-6)
        rows.append([cfg.lam, rec.energy, rec.residual, rec.iterations,
                     rec.barycenter[0], rec.barycenter[1],
                     spec.morse_index, spec.null_count])
        recs_json.append({
            **record_summary(rec, spec),
            "class_size": len(cl),
            "null_count": spec.null_count,
            "nondegenerate": spec.nondegenerate,
            "ray_second_derivative": rsd,
            "smallest_eigenvalues": [float(v) for v in spec.eigenvalues[:6]],
        })
    census = morse_count_check(reps, spectra, basis.dom)
    results = {
        "records": recs_json,
        "census": dataclasses.asdict(census),
    }
    write_results_json(out_dir, "morse", cfg.config_hash, cfg.canonical, results)
    write_csv(out_dir, "morse", cfg.config_hash,
              ["lambda", "level", "residual", "iterations", "barycenter_x",
               "barycenter_y", "morse_index", "null_count"], rows)
    return results


def run_report(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Aggregate any task outputs already present in out_dir into one index.

    A results file that cannot be read, is not JSON or lacks a field the
    summary reads is a TaskFailed naming it.
    """
    out = Path(out_dir)
    tasks = []
    lines = ["# Run report", ""]
    summary = {}
    for name in ("solve", "sweep", "multiplicity", "verify-extension", "morse"):
        path = out / f"{name}.json"
        if path.exists():
            try:
                entry, line = _report_entry(name, read_results_json(path)["results"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise TaskFailed(f"cannot report {path}: {type(exc).__name__}: {exc}") from exc
            tasks.append(name)
            summary[name.replace("-", "_")] = entry
            lines.append(f"- {name}: {line}")
    if not tasks:
        raise TaskFailed(f"nothing to report: no task outputs found in {out}")
    results = {"tasks": sorted(tasks), "summary": summary}
    write_results_json(out_dir, "report", cfg.config_hash, cfg.canonical, results)
    (out / "report.md").write_text("\n".join(lines) + "\n")
    return results


def _report_entry(name: str, r: dict) -> tuple[dict, str]:
    """run_report's summary entry and line for one task's results."""
    if name == "solve":
        return ({"level": r["level"], "converged": r["best"]["converged"]},
                f"level {r['level']:.9g}, best converged: {r['best']['converged']}")
    if name == "sweep":
        return ({"limit_level": r["limit_level"]["value"], "rows": len(r["rows"])},
                f"{len(r['rows'])} rows, limit level {r['limit_level']['value']:.9g}")
    if name == "multiplicity":
        return ({"n_classes": r["n_classes"], "census_matches": r["census"]["matches"]},
                f"{r['n_classes']} classes, census matches: {r['census']['matches']}")
    if name == "verify-extension":
        return {"all_passed": r["all_passed"]}, f"all passed: {r['all_passed']}"
    return ({"counted": r["census"]["counted"], "matches": r["census"]["matches"]},
            f"{r['census']['counted']} counted, matches: {r['census']['matches']}")


TASK_RUNNERS = {
    "solve": run_solve,
    "sweep-lambda": run_sweep,
    "multiplicity": run_multiplicity,
    "verify-extension": run_verify_extension,
    "morse": run_morse,
    "report": run_report,
}


def run(cfg: RunConfig, out_dir: str | Path, workers: int = 1) -> dict:
    """Dispatch the configured task; FracfieldError escapes become TaskFailed.
    Tasks run in the calling thread: workers stays only because
    perfbench/run.py passes workers=1, and any other value raises ValueError."""
    if workers != 1:
        raise ValueError(f"tasks run in one thread: workers must be 1, got {workers}")
    runner = TASK_RUNNERS[cfg.task]
    try:
        return runner(cfg, out_dir)
    except TaskFailed:
        raise
    except FracfieldError as exc:
        raise TaskFailed(f"task {cfg.task} failed: {type(exc).__name__}: {exc}") from exc
