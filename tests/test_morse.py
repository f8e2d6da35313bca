"""Second-variation assembly, index counting, and the census comparison.

Oracle strategy: the Hessian matrix is checked column-by-column against a
central finite difference of the energy gradient, and its action against the
matrix-free product; index examples use states whose stability type is forced
by the construction (zero field, ground states, two-bump band saddle).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fracfield.domain import build_domain
from fracfield.errors import OffManifold, UnknownDomainTopology
from fracfield.model import Energy, power_model
from fracfield.morse import (
    HessianSpectrumReport,
    classify_record,
    classify_records,
    default_eps_null,
    hessian_matrix,
    hessian_spectrum,
    morse_count_check,
    perturbation_spectrum,
    ray_second_derivative,
)
from fracfield.nehari import gaussian_bump_seed, ground_state
from fracfield.spectral import assemble_and_decompose

NL = power_model()


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=1.0 / 17.0)
    return assemble_and_decompose(dom, K=100, alpha=0.5)


@pytest.fixture(scope="module")
def square_ground(square16):
    seed = gaussian_bump_seed(square16, (0.0, 0.0), 0.25)
    rec = ground_state(square16, NL, seed)
    assert rec.converged
    return rec


@pytest.fixture(scope="module")
def disk_ground(disk_host):
    seed = gaussian_bump_seed(disk_host, (0.0, 0.0), 0.4)
    rec = ground_state(disk_host, NL, seed)
    assert rec.converged
    return rec


def test_zero_field_spectrum(square16):
    zero = square16.synthesize(np.zeros(square16.K))
    rep = hessian_spectrum(square16, NL, zero)
    assert rep.morse_index == 0
    assert rep.null_count == 0
    assert rep.nondegenerate
    assert rep.eigenvalues[0] == pytest.approx(square16.weights[0], rel=1e-12)
    assert rep.eigenvalues[0] > 1.0
    assert np.allclose(rep.eigenvalues, np.sort(square16.weights), rtol=1e-12)


def test_hessian_exactly_symmetric_and_matches_product(square16, square_ground):
    H = hessian_matrix(square16, NL, square_ground.u)
    assert float(np.abs(H - H.T).max()) == 0.0
    e = Energy(square16, NL)
    values = e.values(square_ground.u.coeffs)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(square16.K)
        hv = e.hessian_vector(values, v)
        assert np.allclose(H @ v, hv, rtol=1e-10, atol=1e-10 * np.abs(hv).max())


def test_hessian_matches_finite_difference_gradient(square16, square_ground):
    u = square_ground.u
    H = hessian_matrix(square16, NL, u)
    e = Energy(square16, NL)
    rng = np.random.default_rng(7)
    eps = 1e-6 * max(1.0, float(np.linalg.norm(u.coeffs)))
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(square16.K)
        v /= np.linalg.norm(v)
        cp, cm = u.coeffs + eps * v, u.coeffs - eps * v
        gp = e.grad(cp, e.values(cp))
        gm = e.grad(cm, e.values(cm))
        fd = (gp - gm) / (2.0 * eps)
        ref = H @ v
        worst = max(worst, float(np.linalg.norm(fd - ref) / np.linalg.norm(ref)))
    assert worst <= 1e-5


def test_ground_states_have_index_one(square16, square_ground, disk_host, disk_ground):
    for basis, rec in ((square16, square_ground), (disk_host, disk_ground)):
        rep = hessian_spectrum(basis, NL, rec.u)
        assert rep.morse_index == 1
        assert rep.nondegenerate
        assert np.all(np.diff(rep.eigenvalues) >= 0)
        assert rep.morse_index + rep.null_count <= basis.K


def test_ray_second_derivative_identities(disk_host, disk_ground):
    u = disk_ground.u
    Q = float(np.sum(disk_host.weights * u.coeffs**2))
    rsd = ray_second_derivative(disk_host, NL, u)
    assert rsd < 0
    # for h(s) = s^2 the ray curvature is (1 - p) Q = -Q exactly
    assert rsd == pytest.approx(-Q, rel=1e-12)
    H = hessian_matrix(disk_host, NL, u)
    assert rsd == pytest.approx(float(u.coeffs @ (H @ u.coeffs)), rel=1e-8)


def test_ray_second_derivative_rejects_off_manifold(disk_host, disk_ground):
    off = disk_host.synthesize(1.3 * disk_ground.u.coeffs)
    with pytest.raises(OffManifold):
        ray_second_derivative(disk_host, NL, off)


def test_eps_null_validation(square16, square_ground):
    assert default_eps_null(square16) == pytest.approx(1e-6 * square16.weights[0], rel=1e-12)
    with pytest.raises(ValueError, match="eps_null"):
        hessian_spectrum(square16, NL, square_ground.u, eps_null=0.0)


def test_annulus_classes_are_local_minima(annulus4, annulus_classes):
    # both orbit classes on the coarse annulus are genuine minima: exactly the
    # ray instability and nothing else, comfortably nondegenerate
    for cl in annulus_classes.classes:
        rep = hessian_spectrum(annulus4, NL, cl.representative.u)
        assert rep.morse_index == 1
        assert rep.nondegenerate
        assert rep.eigenvalues[1] > 1.0


def test_band_saddle_has_index_two(annulus4, annulus_band):
    assert annulus_band.converged
    rep = hessian_spectrum(annulus4, NL, annulus_band.saddle.u)
    assert rep.morse_index == 2
    assert rep.nondegenerate
    # the two descent modes are the near-degenerate single-bump ray pair
    assert rep.eigenvalues[1] == pytest.approx(rep.eigenvalues[0], rel=1e-3)
    assert rep.eigenvalues[2] > 1.0


def test_classify_records_attaches_indices(disk_host, disk_ground):
    assert disk_ground.morse_index is None
    pairs = classify_records(disk_host, NL, [disk_ground, disk_ground], workers=2)
    serial, report = classify_record(disk_host, NL, disk_ground)
    assert serial.morse_index == 1
    assert serial.energy == disk_ground.energy
    for rec, rep in pairs:
        assert rec.morse_index == 1
        assert np.allclose(rep.eigenvalues, report.eigenvalues, rtol=1e-12)


def _fake_spectrum(null_count: int) -> HessianSpectrumReport:
    return HessianSpectrumReport(
        eigenvalues=np.array([-1.0, 1.0]),
        morse_index=1,
        null_count=null_count,
        nondegenerate=null_count == 0,
        eps_null=1e-6,
    )


def test_morse_count_check_disk(disk_ground):
    rec = dataclasses.replace(disk_ground, morse_index=1)
    report = morse_count_check([rec], "disk")
    assert report.p1 == 1
    assert report.target_total == 1
    assert (report.target_index1, report.target_index2) == (1, 0)
    assert (report.found_index1, report.found_index2) == (1, 0)
    assert report.matches
    assert report.degenerate_tags == ()


def test_morse_count_check_annulus_census(disk_ground):
    recs = [dataclasses.replace(disk_ground, morse_index=m) for m in (1, 1, 2)]
    report = morse_count_check(recs, "annulus")
    assert report.target_total == 3
    assert (report.target_index1, report.target_index2) == (2, 1)
    assert report.matches
    short = morse_count_check(recs[:2], "annulus")
    assert not short.matches


def test_morse_count_check_excludes_degenerate(disk_ground):
    recs = [dataclasses.replace(disk_ground, morse_index=m) for m in (1, 1, 2)]
    spectra = [_fake_spectrum(0), _fake_spectrum(2), _fake_spectrum(0)]
    report = morse_count_check(recs, "annulus", spectra=spectra)
    assert report.counted == 2
    assert report.degenerate_tags == (recs[1].seed_tag,)
    assert (report.found_index1, report.found_index2) == (1, 1)
    assert not report.matches


def test_morse_count_check_validation(disk_ground):
    rec = dataclasses.replace(disk_ground, morse_index=1)
    with pytest.raises(UnknownDomainTopology):
        morse_count_check([rec], "pentagon")
    with pytest.raises(ValueError, match="Morse index"):
        morse_count_check([disk_ground], "disk")
    with pytest.raises(ValueError, match="align"):
        morse_count_check([rec], "disk", spectra=[])


def test_compactness_echo_spectrum_decays(disk_host, disk_ground):
    ps = perturbation_spectrum(disk_host, NL, disk_ground.u)
    assert np.all(np.diff(ps) >= 0)
    assert np.all(ps >= -1e-12)
    top = ps[-1]
    # the ray direction is an exact eigenvector with eigenvalue p = 2
    assert top == pytest.approx(2.0, rel=1e-8)
    desc = ps[::-1]
    tail = desc[int(np.floor(0.9 * (len(desc) - 1)))]
    assert tail < 0.01 * top
