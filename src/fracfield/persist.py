"""Deterministic writers for results JSON, CSV summaries, and field dumps.

Everything written here is reproducible byte for byte given the same inputs:
keys are sorted, floats use repr (shortest round-trip form), and no
timestamps or environment details enter the payload. Runtimes, which do vary,
go only into CSV columns that exist for bookkeeping, never into JSON.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .config import SCHEMA_VERSION, canonical_json
from .morse import HessianSpectrumReport
from .nehari import SolutionRecord
from .spectral import Field


def _plain(obj):
    """Recursively strip numpy scalar/array types so json sees pure Python.

    Guards the byte-determinism contract: numpy scalars are not serializable,
    and letting repr() of one reach a file would change format with the numpy
    version.
    """
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def record_summary(rec: SolutionRecord, spec: HessianSpectrumReport) -> dict:
    """JSON-ready digest of a solution record and its spectrum's index (field data stays out)."""
    return {
        "energy": rec.energy,
        "residual": rec.residual,
        "barycenter": [rec.barycenter[0], rec.barycenter[1]],
        "positive": rec.positive,
        "seed_tag": rec.seed_tag,
        "iterations": rec.iterations,
        "converged": rec.converged,
        "morse_index": spec.morse_index,
    }


def write_results_json(out_dir: str | Path, name: str, config_hash: str,
                       config_canonical: dict, results: dict) -> Path:
    """Write the schema-versioned result document and return its path."""
    payload = _plain({
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash,
        "config": config_canonical,
        "results": results,
    })
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(canonical_json(payload))
    return path


def write_csv(out_dir: str | Path, name: str, config_hash: str,
              header: list[str], rows: list[list]) -> Path:
    """CSV with two leading comment lines carrying schema version and hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    with path.open("w", newline="") as fh:
        fh.write(f"# schema_version {SCHEMA_VERSION}\n")
        fh.write(f"# config_hash {config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, np.integer):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def dump_field(out_dir: str | Path, name: str, config_hash: str, u: Field) -> Path:
    """Headered flat dump: nx, ny, h, then ny*nx row-major values.

    Values cover the full bounding grid with zeros outside the mask, so
    np.loadtxt(path) yields [nx, ny, h, v00, v01, ...] ready to reshape into
    (ny, nx) for plotting.
    """
    dom = u.dom
    grid = dom.grid_values(u.values)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.txt"
    with path.open("w") as fh:
        fh.write(f"# schema_version {SCHEMA_VERSION}\n")
        fh.write(f"# config_hash {config_hash}\n")
        fh.write(f"# nx ny h then row-major values, zeros outside the domain mask\n")
        fh.write(f"{dom.nx}\n{dom.ny}\n{repr(dom.h)}\n")
        for v in grid.ravel(order="C"):
            fh.write(f"{float(v)!r}\n")
    return path


def read_results_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
