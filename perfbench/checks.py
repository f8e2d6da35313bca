"""Correctness checks on a task's results JSON.

Two kinds per task invocation. Claim checks test what the paper predicts
(orbit classes, localization, Morse census, level asymptotics). The
reference check compares the seed-independent outputs, as reference_values
extracts them, with those recorded in reference.json from a seed-0 run of
the seed commit: counts and Morse indices exactly, levels within the stated
relative tolerance. Known defects of the program, some of which show only
on some rng_seeds, are listed there with a note; they still count as failed
checks, but do not make a run's outputs incorrect.
"""

from __future__ import annotations

import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def reference_values(kind: str, results: dict) -> dict:
    """The outputs that rng_seed cannot change, as compared with the reference.

    The band saddle is left out on purpose: its claims are checked below,
    and a fix of the lambda=8 defect must not break the reference.
    """
    if kind == "multiplicity":
        return {
            "n_seeds": results["n_seeds"],
            "n_converged": results["n_converged"],
            "n_classes": results["n_classes"],
            "ball_level": results["ball_level"],
            "classes": [{"energy": c["record"]["energy"],
                         "morse_index": c["record"]["morse_index"],
                         "orbit_size": c["orbit_size"]} for c in results["classes"]],
        }
    if kind == "solve":
        return {"level": results["level"], "n_requested": results["n_requested"]}
    if kind == "sweep-lambda":
        return {
            "ball_levels_over_radii": results["limit_level"]["levels"],
            "limit_level": results["limit_level"]["value"],
            "rows": [{"lambda": r["lambda"], "ball_level": r.get("ball_level"),
                      "annulus_level": r.get("annulus_level")} for r in results["rows"]],
        }
    raise ValueError(f"no reference values for task {kind!r}")


def matches(want, got, rel_tol: float) -> bool:
    """Floats within rel_tol; everything else (ints, bools, None, str) exactly."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and want.keys() == got.keys()
                and all(matches(want[k], got[k], rel_tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(matches(w, g, rel_tol) for w, g in zip(want, got)))
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(want, got, rel_tol=rel_tol, abs_tol=0.0)
    return type(want) is type(got) and want == got


def claim_checks(kind: str, results: dict) -> dict[str, bool]:
    if kind == "multiplicity":
        classes = results["classes"]
        saddle = results["band_saddle"]
        census = results["census"]
        return {
            "at_least_two_classes": results["n_classes"] >= 2,
            "classes_localized": all(
                c["record"]["converged"] and c["record"]["positive"]
                and c["below_ball_level"] and c["beta_in_plus"] for c in classes),
            "band_saddle_index_2": bool(saddle and saddle["record"]["converged"]
                                        and saddle["record"]["morse_index"] == 2),
            "census_2_plus_1": (census["found_index1"] == 2 and census["found_index2"] == 1
                                and census["matches"]),
        }
    if kind == "solve":
        records = results["records"]
        return {
            "all_starts_converged": (results["n_converged"] == results["n_requested"]
                                     and all(r["converged"] for r in records)),
            "all_index_1": all(r["morse_index"] == 1 for r in records),
        }
    if kind == "sweep-lambda":
        rows = results["rows"]
        limit = results["limit_level"]
        ball = [r["ball_level"] for r in rows if r.get("ball_level") is not None]
        return {
            "no_row_error": all("error" not in r for r in rows),
            "ball_levels_monotone": (
                all(b < a for a, b in zip(limit["levels"], limit["levels"][1:]))
                and all(b < a for a, b in zip(ball, ball[1:]))),
            "annulus_above_limit": all(r.get("annulus_level") is not None
                                       and r["annulus_level"] > limit["value"] for r in rows),
        }
    raise ValueError(f"no claim checks for task {kind!r}")


def check_task(reference: dict, workload: str, label: str, kind: str,
               results: dict) -> dict[str, bool]:
    """All checks of one task invocation, keyed workload/label/check."""
    want = reference["workloads"][workload][label]
    out = {f"{workload}/{label}/{name}": ok for name, ok in claim_checks(kind, results).items()}
    out[f"{workload}/{label}/matches_reference"] = matches(
        want, reference_values(kind, results), reference["level_rel_tol"])
    return out
