"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single bracketed PASS/FAIL line through the capture
bypass so the verdicts survive in plain pytest output. Criteria with a
stated runtime budget measure their own wall time and assert it.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse.linalg

from fracfield.cli import main as cli_main
from fracfield.config import default_config
from fracfield.domain import build_domain
from fracfield.extension import k_alpha, scaling_check, solve_profile
from fracfield.model import Energy
from fracfield.morse import classify_records, hessian_spectrum, morse_count_check
from fracfield.nehari import (
    gaussian_bump_seed,
    ground_state,
    limit_level_estimate,
)
from fracfield.spectral import assemble_and_decompose, assemble_laplacian
from fracfield.topology import (
    annulus_level,
    band_saddle,
    moving_mirrors,
    multiplicity_search,
)
from oracles import (
    coefficient_grad,
    coefficient_hessian,
    energy_at,
    nehari_scale_root,
    radial_asymmetry,
    synthesize,
)

P = 2.0


@contextmanager
def verdict(capsys, num: int, label: str):
    info: dict = {}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"[A{num}] {label}: FAIL")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    with capsys.disabled():
        print(f"[A{num}] {label}: PASS{detail}")


def _unit_square(h: float):
    return build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=h)


def _ball_ground(radius: float, h: float):
    dom = build_domain("disk", {"R": radius}, lam=1.0, h=h)
    basis = assemble_and_decompose(dom, alpha=0.5)
    seed = gaussian_bump_seed(basis, (0.0, 0.0), 0.5 * radius)
    rec = ground_state(Energy(basis, P), seed, tol=1e-8, seed_tag="ball")
    assert rec.converged
    return basis, rec


@pytest.fixture(scope="module")
def disk1500():
    """Fine disk for the ground-state property checks, with its own timing."""
    t0 = time.perf_counter()
    dom = build_domain("disk", {"R": 1.0}, lam=1.0, h=0.045)
    basis = assemble_and_decompose(dom, alpha=0.5)
    seed = gaussian_bump_seed(basis, (0.0, 0.0), 0.5)
    rec = ground_state(Energy(basis, P), seed, tol=1e-8, seed_tag="fine-disk")
    return basis, rec, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ball_scan():
    """Ball levels over doubling radii plus the extrapolated limit level."""
    t0 = time.perf_counter()
    levels = {xi: _ball_ground(float(xi), 0.25)[1].energy for xi in (2, 4, 8)}
    limit = limit_level_estimate(P, [1.0, 2.0, 4.0], 0.25, alpha=0.5, tol=1e-8)
    return levels, limit, time.perf_counter() - t0


@pytest.fixture(scope="module")
def orbit_hunt(annulus4):
    """Multiplicity search, mirror saddle, and Hessian spectra on the lam=4
    annulus with the comparison ball that the task pipeline uses."""
    t0 = time.perf_counter()
    lam, R, r = 4.0, 1.0, 0.4
    radius = 0.9 * lam * min(0.5 * (R - r), r)
    mid = 0.5 * (R + r) * lam
    centers = [(mid * np.cos(k * np.pi / 4), mid * np.sin(k * np.pi / 4))
               for k in range(8)]
    report = multiplicity_search(Energy(annulus4, P), centers, ball_radius=radius)

    lo = report.classes[0].representative.u
    mirror, *_ = moving_mirrors(lo)
    saddle = band_saddle(Energy(annulus4, P), lo, mirror).saddle

    reps = [cl.representative for cl in report.classes]
    records = reps + [saddle]
    spectra = classify_records(Energy(annulus4, P), records)
    return report, saddle, records, spectra, time.perf_counter() - t0


@pytest.fixture(scope="module")
def annulus2_levels():
    """Pinned and unconstrained levels on the lam=2 annulus, shared by the
    asymptotics and constrained-level checks."""
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=2.0, h=0.25)
    basis = assemble_and_decompose(dom, alpha=0.5)
    pinned = annulus_level(Energy(basis, P), tol=1e-8)
    mid = 0.5 * (1.0 + 0.4) * 2.0
    best = np.inf
    for k in range(8):
        center = (mid * np.cos(k * np.pi / 4), mid * np.sin(k * np.pi / 4))
        rec = ground_state(Energy(basis, P), gaussian_bump_seed(basis, center, 0.54),
                           tol=1e-8, seed_tag=f"lam2-{k}")
        if rec.converged:
            best = min(best, rec.energy)
    assert np.isfinite(best)
    return pinned, best


@pytest.fixture(scope="module")
def disk_census(disk_host):
    seed = gaussian_bump_seed(disk_host, (0.0, 0.0), 0.5)
    rec = ground_state(Energy(disk_host, P), seed, tol=1e-8, seed_tag="disk-census")
    assert rec.converged
    return [rec], classify_records(Energy(disk_host, P), [rec])


def test_a1_spectral_exactness(capsys):
    with verdict(capsys, 1, "spectral exactness on the unit square") as info:
        t0 = time.perf_counter()

        # every sampled sine product is an eigenvector of L = A^alpha + I with
        # the closed-form eigenvalue mu^alpha + 1, mu = s_j + s_k
        h = 1.0 / 17.0
        dom = _unit_square(h)
        basis = assemble_and_decompose(dom, alpha=0.5)
        m = round(1.0 / h) - 1
        jk = np.arange(1, m + 1)
        s = (4.0 / h**2) * np.sin(jk * np.pi * h / 2.0) ** 2
        x, y = (dom.node_coords + 0.5).T
        rel = 0.0
        for a in range(m):
            for b in range(m):
                sine = np.sin(jk[a] * np.pi * x) * np.sin(jk[b] * np.pi * y)
                w = (s[a] + s[b]) ** 0.5 + 1.0
                rel = max(rel, float(np.linalg.norm(basis.operator(sine) - w * sine)
                                     / (w * np.linalg.norm(sine))))
        assert rel <= 1e-10

        # the lowest eigenvalue alone, by shift-invert Lanczos on the sparse
        # Laplacian: at h = 1/65 (n = 4096) each dense n x n array takes 134 MB
        mu1 = {}
        for denom in (17, 33, 65):
            L = assemble_laplacian(_unit_square(1.0 / denom))
            mu1[denom] = scipy.sparse.linalg.eigsh(L, k=1, sigma=0.0, v0=np.ones(L.shape[0]),
                                                 return_eigenvectors=False)[0]
        errs = {d: abs(mu1[d] - 2.0 * np.pi**2) for d in mu1}
        order_a = np.log(errs[17] / errs[33]) / np.log(33.0 / 17.0)
        order_b = np.log(errs[33] / errs[65]) / np.log(65.0 / 33.0)
        assert 1.9 <= order_a <= 2.1
        assert 1.9 <= order_b <= 2.1

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        info["detail"] = (f"max rel err {rel:.2e}, orders "
                          f"{order_a:.3f}/{order_b:.3f}, {elapsed:.1f}s")


def test_a2_extension_identity(capsys):
    with verdict(capsys, 2, "harmonic-extension energy identity") as info:
        t0 = time.perf_counter()

        worst = 0.0
        for alpha, mu, got, want, rel in scaling_check((0.25, 0.5, 0.75), (1.0, 4.0)):
            assert 1.0 - 1e-5 <= got / want <= 1.0 + 1e-5
            worst = max(worst, abs(rel))

        profile = solve_profile(0.5)
        s = np.linspace(0.0, 10.0, 2001)
        sup_err = float(np.max(np.abs(profile.psi(s) - np.exp(-s))))
        assert sup_err <= 1e-8
        flux_rel = abs(profile.flux_limit() - k_alpha(0.5)) / k_alpha(0.5)
        assert flux_rel <= 1e-6

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        info["detail"] = (f"scaling {worst:.1e}, psi sup {sup_err:.1e}, "
                          f"flux {flux_rel:.1e}, {elapsed:.1f}s")


def test_a3_variational_calculus(capsys, disk_host):
    with verdict(capsys, 3, "gradient, Hessian, and Nehari scale checks") as info:
        rng = np.random.default_rng(11)
        K = disk_host.K
        c = rng.standard_normal(K)
        e = Energy(disk_host, P)
        g = coefficient_grad(e, c)
        eps = 1e-6 * max(1.0, float(np.linalg.norm(c)))

        worst_g = 0.0
        for _ in range(20):
            v = rng.standard_normal(K)
            v /= np.linalg.norm(v)
            cp, cm = c + eps * v, c - eps * v
            ep = energy_at(e, cp)
            em = energy_at(e, cm)
            fd = (ep - em) / (2.0 * eps)
            worst_g = max(worst_g, abs(float(g @ v) - fd) / max(abs(fd), 1e-12))
        assert worst_g <= 1e-6

        worst_h = 0.0
        for _ in range(20):
            v = rng.standard_normal(K)
            v /= np.linalg.norm(v)
            cp, cm = c + eps * v, c - eps * v
            fd = (coefficient_grad(e, cp) - coefficient_grad(e, cm)) / (2.0 * eps)
            hv = coefficient_hessian(e, c)(v)
            worst_h = max(worst_h, float(np.linalg.norm(hv - fd) / max(np.linalg.norm(fd), 1e-12)))
        assert worst_h <= 1e-5

        worst_t = 0.0
        for _ in range(50):
            w = synthesize(disk_host, rng.standard_normal(K))
            t_cf = e.nehari_t(w.values, e.quadratic(*e.point(w.values)))
            t_rf = nehari_scale_root(disk_host, P, w)
            worst_t = max(worst_t, abs(t_cf - t_rf) / t_cf)
        assert worst_t <= 1e-10

        info["detail"] = (f"grad {worst_g:.1e}, hvp {worst_h:.1e}, "
                          f"scale {worst_t:.1e}")


def test_a4_ground_state_properties(capsys, disk1500):
    with verdict(capsys, 4, "fine-disk ground state properties") as info:
        basis, rec, elapsed = disk1500
        assert basis.dom.n_interior >= 1500

        assert rec.converged and rec.residual <= 1e-8
        vmax = float(rec.u.values.max())
        assert float(rec.u.values.min()) >= -1e-8 * vmax

        e = Energy(basis, P)
        Q = e.quadratic(*e.point(rec.u.values))
        assert abs(e.j(rec.u.values, Q)) <= 1e-8 * Q

        asym = radial_asymmetry(rec.u, center=(0.0, 0.0))
        assert asym <= 0.02

        spec = hessian_spectrum(Energy(basis, P), rec.u)
        assert spec.morse_index == 1 and spec.null_count == 0

        assert elapsed < 300.0
        info["detail"] = (f"{basis.dom.n_interior} nodes, residual "
                          f"{rec.residual:.1e}, asym {asym:.2e}, index 1, "
                          f"{elapsed:.0f}s")


def test_a5_level_asymptotics(capsys, ball_scan, orbit_hunt, annulus2_levels):
    with verdict(capsys, 5, "ball levels decrease toward the limit level") as info:
        levels, limit, elapsed = ball_scan
        c2, c4, c8 = levels[2], levels[4], levels[8]
        assert c2 > c4 > c8
        gap1, gap2 = c2 - c4, c4 - c8
        assert gap2 < 0.5 * gap1

        report, _, _, _, _ = orbit_hunt
        _, c_omega2 = annulus2_levels
        tested = {"B_2": c2, "B_4": c4, "B_8": c8,
                  "annulus_2": c_omega2,
                  "annulus_4": report.classes[0].representative.energy}
        margins = {k: v - limit.value for k, v in tested.items()}
        assert all(m > 0.0 for m in margins.values())

        info["detail"] = (f"gaps {gap1:.4f}/{gap2:.4f}, min margin "
                          f"{min(margins.values()):.4f} over {len(margins)} "
                          f"levels, {elapsed:.0f}s")


def test_a6_annulus_constrained_level(capsys, annulus4, ball_scan, orbit_hunt,
                                      annulus2_levels):
    with verdict(capsys, 6, "center-pinned annulus level stays high") as info:
        _, limit, _ = ball_scan
        a4 = annulus_level(Energy(annulus4, P), tol=1e-8)
        rel_margin = (a4.value - limit.value) / limit.value
        assert rel_margin >= 0.05

        report, _, _, _, _ = orbit_hunt
        c_omega4 = report.classes[0].representative.energy
        assert a4.value >= c_omega4

        a2, c_omega2 = annulus2_levels
        assert a2.value >= c_omega2

        info["detail"] = (f"rel margin {rel_margin:.1%}, a={a4.value:.4f} vs "
                          f"c={c_omega4:.4f} at lam=4; a={a2.value:.4f} vs "
                          f"c={c_omega2:.4f} at lam=2")


def test_a7_multiplicity_and_localization(capsys, orbit_hunt):
    with verdict(capsys, 7, "orbit classes, localization, mirror saddle") as info:
        report, saddle, _, spectra, elapsed = orbit_hunt

        assert report.n_classes >= 2
        below = [cl for cl in report.classes
                 if report.below_ball_level(cl.representative.energy)]
        assert below, "no class under the comparison level; predicate is vacuous"
        assert all(cl.beta_in_plus for cl in below)

        # best-effort clause: a converged nondegenerate saddle must have
        # index 2; a degenerate one only has to be flagged as such
        assert saddle.converged
        saddle_spec = spectra[-1]
        if saddle_spec.nondegenerate:
            assert saddle_spec.morse_index == 2
            saddle_note = "saddle index 2 nondegenerate"
        else:
            assert saddle_spec.null_count > 0
            saddle_note = f"saddle degenerate (null {saddle_spec.null_count})"

        assert elapsed < 1800.0
        info["detail"] = (f"{report.n_classes} classes, {len(below)} below "
                          f"c(B)={report.ball_level:.4f} all localized, "
                          f"{saddle_note}, {elapsed:.0f}s")


def test_a8_morse_census(capsys, disk_census, orbit_hunt, disk_host, annulus4):
    with verdict(capsys, 8, "Morse counts against 2 P(1) - 1") as info:
        disk_check = morse_count_check(*disk_census, disk_host.dom)
        assert disk_check.target_total == 1
        assert disk_check.counted == 1
        assert disk_check.matches

        _, _, records, spectra, _ = orbit_hunt
        ann_check = morse_count_check(records, spectra, annulus4.dom)
        assert ann_check.target_total == 3
        assert ann_check.target_index1 == 2 and ann_check.target_index2 == 1
        assert ann_check.found_index1 == 2 and ann_check.found_index2 == 1
        assert ann_check.matches

        info["detail"] = (f"disk 1/1, annulus {ann_check.found_index1}+"
                          f"{ann_check.found_index2} vs target 2+1")


def test_a9_reproducibility(capsys, tmp_path):
    with verdict(capsys, 9, "identical config and seed give identical bytes") as info:
        cfg = default_config("solve")
        cfg["domain"]["h"] = 0.15
        cfg["solver"]["n_starts"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))

        digests = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli_main(["solve", "--config", str(path),
                             "--out", str(out), "--quiet"]) == 0
            digests.append(hashlib.sha256((out / "solve.json").read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        info["detail"] = f"sha256 {digests[0][:12]}.. twice"
