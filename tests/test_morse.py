"""Second-variation spectra, index counting, and the census comparison.

Oracle strategy: hessian_spectrum never forms the Hessian, so the dense
matrix is assembled here as the reference. It is checked column-by-column
against a central finite difference of the energy gradient and against the
matrix-free product; the Lanczos eigenvalues are compared with the full
spectrum of the pencil H x = theta W x, and the index counts with the inertia
of the LDL^T factorizations of H + eps W and H - eps W (Sylvester's law: by
congruence those are the inertias of S + eps I and S - eps I, with
S = W^-1/2 H W^-1/2). Index examples use states whose stability type is
forced by the construction (zero field, ground states, two-bump mirror saddle).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from fracfield import morse
from fracfield.domain import build_domain
from fracfield.errors import EigSolveFailure, OffManifold
from fracfield.model import Energy, PinnedEnergy, h_prime
from fracfield.morse import (
    DEFAULT_EPS_NULL,
    HessianSpectrumReport,
    classify_records,
    hessian_spectrum,
    morse_count_check,
    ray_second_derivative,
)
from fracfield.nehari import gaussian_bump_seed, ground_state
from fracfield.spectral import Field, SpectralBasis, assemble_and_decompose
from oracles import (
    coefficient_grad,
    coefficient_hessian,
    coefficients,
    dense_phi,
    synthesize,
    weights,
)

P = 2.0


def _gram(basis: SpectralBasis, u) -> np.ndarray:
    """The Gram matrix G of the modes under node weights h^2 h'(u), exactly symmetric."""
    phi = dense_phi(basis)
    values = phi @ coefficients(basis, u)
    w = basis.dom.h**2 * h_prime(P, values)
    G = phi.T @ (w[:, None] * phi)
    for j in range(G.shape[0] - 1):
        G[j + 1:, j] = G[j, j + 1:]
    return G


def hessian_matrix(basis: SpectralBasis, u) -> np.ndarray:
    """Dense symmetric second-variation matrix W - G at the span representation of u."""
    H = -_gram(basis, u)
    H[np.diag_indices_from(H)] += weights(basis)
    return H


def pencil_spectrum(basis: SpectralBasis, u) -> np.ndarray:
    """Ascending eigenvalues theta of the dense pencil H x = theta W x, those of S."""
    return scipy.linalg.eigh(hessian_matrix(basis, u), np.diag(weights(basis)), eigvals_only=True)


def perturbation_spectrum(basis: SpectralBasis, u) -> np.ndarray:
    """Ascending eigenvalues of W^(-1/2) G W^(-1/2), the compact part of the second variation.

    Conjugating the Hessian by the quadratic-form weights turns it into
    identity minus this perturbation; its spectrum decays because the weight
    divides out growing mode energies. At a manifold point with p = 2 the top
    eigenvalue is exactly 2, attained along the ray.
    """
    sw = 1.0 / np.sqrt(weights(basis))
    return scipy.linalg.eigvalsh(sw[:, None] * _gram(basis, u) * sw[None, :])


def _negative_count(M: np.ndarray) -> int:
    """Negative eigenvalues of the symmetric M, read off the blocks of its LDL^T factor.

    A 2 x 2 block of D with negative determinant holds one negative
    eigenvalue, one with positive determinant two of its diagonal's sign.
    """
    _, D, _ = scipy.linalg.ldl(M)
    neg, j = 0, 0
    while j < D.shape[0]:
        if j + 1 < D.shape[0] and D[j + 1, j] != 0.0:
            a, b, c = D[j, j], D[j + 1, j], D[j + 1, j + 1]
            det = a * c - b * b
            assert det != 0.0
            neg += 1 if det < 0.0 else 2 * int(a < 0.0)
            j += 2
        else:
            assert D[j, j] != 0.0
            neg += int(D[j, j] < 0.0)
            j += 1
    return neg


def _sylvester_counts(H: np.ndarray, eps: float, w: np.ndarray) -> tuple[int, int]:
    """(Morse index, null count) of S = W^-1/2 H W^-1/2 from the inertia of H + eps W
    and H - eps W, W = diag(w): the counts of theta below -eps and within eps."""
    shift = eps * np.diag(w)
    below = _negative_count(H + shift)
    return below, _negative_count(H - shift) - below


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=1.0 / 17.0)
    return assemble_and_decompose(dom, alpha=0.5)


@pytest.fixture(scope="module")
def square_ground(square16):
    seed = gaussian_bump_seed(square16, (0.0, 0.0), 0.25)
    rec = ground_state(Energy(square16, P), seed)
    assert rec.converged
    return rec


@pytest.fixture(scope="module")
def disk_ground(disk_host):
    seed = gaussian_bump_seed(disk_host, (0.0, 0.0), 0.4)
    rec = ground_state(Energy(disk_host, P), seed)
    assert rec.converged
    return rec


def test_zero_field_spectrum(square16):
    zero = Field(square16.dom, np.zeros(square16.K))
    rep = hessian_spectrum(Energy(square16, P), zero)
    assert rep.morse_index == 0
    assert rep.null_count == 0
    assert rep.nondegenerate
    # H = W, so every theta of the pencil is 1
    assert np.array_equal(rep.eigenvalues, np.ones(6))
    full = scipy.linalg.eigvalsh(hessian_matrix(square16, zero))
    assert np.allclose(full, weights(square16), rtol=1e-12)
    assert np.allclose(pencil_spectrum(square16, zero), 1.0, rtol=1e-12)


def test_hessian_exactly_symmetric_and_matches_product(square16, square_ground):
    H = hessian_matrix(square16, square_ground.u)
    assert float(np.abs(H - H.T).max()) == 0.0
    e = Energy(square16, P)
    hess = coefficient_hessian(e, coefficients(square16, square_ground.u))
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(square16.K)
        hv = hess(v)
        assert np.allclose(H @ v, hv, rtol=1e-10, atol=1e-10 * np.abs(hv).max())


def test_hessian_matches_finite_difference_gradient(square16, square_ground):
    u = square_ground.u
    H = hessian_matrix(square16, u)
    e = Energy(square16, P)
    rng = np.random.default_rng(7)
    c = coefficients(square16, u)
    eps = 1e-6 * max(1.0, float(np.linalg.norm(c)))
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(square16.K)
        v /= np.linalg.norm(v)
        cp, cm = c + eps * v, c - eps * v
        gp = coefficient_grad(e, cp)
        gm = coefficient_grad(e, cm)
        fd = (gp - gm) / (2.0 * eps)
        ref = H @ v
        worst = max(worst, float(np.linalg.norm(fd - ref) / np.linalg.norm(ref)))
    assert worst <= 1e-5


def test_ground_states_have_index_one(square16, square_ground, disk_host, disk_ground):
    for basis, rec in ((square16, square_ground), (disk_host, disk_ground)):
        rep = hessian_spectrum(Energy(basis, P), rec.u)
        assert rep.morse_index == 1
        assert rep.nondegenerate
        assert np.all(np.diff(rep.eigenvalues) >= 0)
        assert rep.morse_index + rep.null_count <= basis.K


def test_ray_second_derivative_identities(disk_host, disk_ground):
    u = disk_ground.u
    c = coefficients(disk_host, u)
    Q = float(np.sum(weights(disk_host) * c**2))
    rsd = ray_second_derivative(Energy(disk_host, P), u)
    assert rsd < 0
    # for h(s) = s^2 the ray curvature is (1 - p) Q = -Q exactly
    assert rsd == pytest.approx(-Q, rel=1e-12)
    H = hessian_matrix(disk_host, u)
    assert rsd == pytest.approx(float(c @ (H @ c)), rel=1e-8)


def test_ray_second_derivative_rejects_off_manifold(disk_host, disk_ground):
    off = Field(disk_host.dom, 1.3 * disk_ground.u.values)
    with pytest.raises(OffManifold):
        ray_second_derivative(Energy(disk_host, P), off)


def test_annulus_classes_are_local_minima(annulus4, annulus_classes):
    # both orbit classes on the coarse annulus are genuine minima: exactly the
    # ray instability and nothing else, comfortably nondegenerate
    for cl in annulus_classes.classes:
        rep = hessian_spectrum(Energy(annulus4, P), cl.representative.u)
        assert rep.morse_index == 1
        assert rep.nondegenerate
        assert rep.eigenvalues[1] > 0.25


def test_band_saddle_has_index_two(annulus4, annulus_saddle):
    assert annulus_saddle.saddle.converged
    rep = hessian_spectrum(Energy(annulus4, P), annulus_saddle.saddle.u)
    assert rep.morse_index == 2
    assert rep.nondegenerate
    # the two descent modes are the near-degenerate single-bump ray pair
    assert rep.eigenvalues[1] == pytest.approx(rep.eigenvalues[0], rel=1e-3)
    assert rep.eigenvalues[2] > 0.25


@pytest.fixture
def critical_points(square16, square_ground, disk_host, disk_ground, annulus4,
                    annulus_classes, annulus_saddle):
    """(basis, field) at every converged critical point the fixtures build."""
    cases = [(square16, square_ground.u), (disk_host, disk_ground.u)]
    cases += [(annulus4, cl.representative.u) for cl in annulus_classes.classes]
    cases.append((annulus4, annulus_saddle.saddle.u))
    return cases


def test_index_counts_match_sylvester_inertia(critical_points):
    assert DEFAULT_EPS_NULL == 1e-6  # the threshold README states
    for basis, u in critical_points:
        rep = hessian_spectrum(Energy(basis, P), u)
        H = hessian_matrix(basis, u)
        assert (rep.morse_index, rep.null_count) == _sylvester_counts(H, DEFAULT_EPS_NULL,
                                                                      weights(basis))
        k = rep.eigenvalues.size
        assert 6 <= k < basis.K
        assert rep.eigenvalues[-1] > DEFAULT_EPS_NULL
        assert np.allclose(rep.eigenvalues, pencil_spectrum(basis, u)[:k], rtol=1e-10, atol=1e-10)


def _assert_both_copies(basis: SpectralBasis, u, repeated: float, first: int) -> None:
    """The spectrum at u equals the dense pencil's, and holds both copies of
    the theta near repeated, from position first on."""
    ev = hessian_spectrum(Energy(basis, P), u).eigenvalues
    dense = pencil_spectrum(basis, u)
    assert np.allclose(ev, dense[:ev.size], rtol=1e-10, atol=1e-10)
    assert np.allclose(ev[first:first + 2], repeated, rtol=1e-3, atol=0.0)
    assert np.sum(np.abs(dense - repeated) <= 1e-3 * abs(repeated)) == 2


# a symmetric point repeats theta, and Lanczos from a start vector in the
# symmetric sector alone finds one copy: so it did from ones(n) on nodes. The
# start h sqrt(D) s has a component along every mode

def test_mirror_saddle_has_both_ray_thetas(annulus4, annulus_saddle):
    # the two bumps' rays both give about -1
    _assert_both_copies(annulus4, annulus_saddle.saddle.u, -1.0, 0)


def test_centred_disk_ground_state_has_both_translation_thetas(disk_host, disk_ground):
    # the translation pair along x and y
    _assert_both_copies(disk_host, disk_ground.u, 0.014453, 1)


def test_ray_is_the_lowest_mode_of_s(critical_points):
    # at a critical point H u = (1 - p) W u, and 1 - p is S's smallest eigenvalue
    for basis, u in critical_points:
        theta = hessian_spectrum(Energy(basis, P), u).eigenvalues[0]
        assert abs(theta - (1.0 - P)) <= 1e-10


def test_hessian_spectrum_products(annulus4, annulus_classes, annulus_saddle, count_products):
    # Lanczos on H took 131-133 products per point here; on S it took 53-56,
    # and on T as many, each one green. The start vector is the basis's s,
    # held: the spectrum applies L not at all
    points = [cl.representative.u for cl in annulus_classes.classes] + [annulus_saddle.saddle.u]
    for u in points:
        with count_products("green") as products, count_products("operator") as operators:
            hessian_spectrum(Energy(annulus4, P), u)
        assert products[0] <= 80
        assert operators[0] == 0


def _eps_with_null_count(ev: np.ndarray, lo: int, hi: int) -> tuple[float, int]:
    """A null threshold midway in the widest gap between the lo-th and hi-th smallest |ev|,
    with the number of eigenvalues it takes in."""
    mags = np.sort(np.abs(ev))
    j = lo + int(np.argmax(np.diff(mags[lo:hi + 1])))
    return 0.5 * (mags[j] + mags[j + 1]), j + 1


def test_null_guard_widens_past_first_k(square16, square_ground, monkeypatch):
    H = hessian_matrix(square16, square_ground.u)
    ev = pencil_spectrum(square16, square_ground.u)
    eps, inside = _eps_with_null_count(ev, 8, 14)
    monkeypatch.setattr(morse, "DEFAULT_EPS_NULL", eps)
    rep = hessian_spectrum(Energy(square16, P), square_ground.u)
    # theta = -1 lies outside every eps taken here, so only null modes are inside
    assert rep.null_count == inside > 6
    assert (rep.morse_index, rep.null_count) == _sylvester_counts(H, eps, weights(square16))
    assert rep.morse_index == np.sum(ev < -eps)
    assert rep.null_count == np.sum(np.abs(ev) <= eps)
    k = rep.eigenvalues.size
    assert k > inside and rep.eigenvalues[-1] > eps
    assert np.allclose(rep.eigenvalues, ev[:k], rtol=1e-10, atol=1e-10)


@pytest.fixture(scope="module")
def square6_ground():
    # a 6 x 6 grid: small enough that the doubling k reaches the formed-H branch
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=1.0 / 7.0)
    basis = assemble_and_decompose(dom, alpha=0.5)
    rec = ground_state(Energy(basis, P), gaussian_bump_seed(basis, (0.0, 0.0), 0.25))
    assert rec.converged
    return basis, rec


@pytest.mark.parametrize("nulls, lanczos_ks, size", [
    (None, [6], 6), ((6, 7), [6, 12], 12), ((23, 27), [6, 12, 24], 36),
], ids=["default-eps", "widened-eps", "formed-h"])
def test_small_span_spectrum(square6_ground, monkeypatch, nulls, lanczos_ks, size):
    basis, rec = square6_ground
    assert basis.K == 36
    H = hessian_matrix(basis, rec.u)
    ev = pencil_spectrum(basis, rec.u)
    eps = DEFAULT_EPS_NULL if nulls is None else _eps_with_null_count(ev, *nulls)[0]
    ks = []
    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *a, **kw: ks.append(kw["k"]) or eigsh(*a, **kw))
    monkeypatch.setattr(morse, "DEFAULT_EPS_NULL", eps)
    rep = hessian_spectrum(Energy(basis, P), rec.u)
    # k doubles by Lanczos while the largest of the k stays within eps; at
    # k = 48 >= K all K eigenvalues come from the formed T
    assert ks == lanczos_ks
    assert rep.eigenvalues.size == size
    assert np.allclose(rep.eigenvalues, ev[:size], rtol=1e-10, atol=1e-10)
    assert (rep.morse_index, rep.null_count) == _sylvester_counts(H, eps, weights(basis))


@pytest.fixture(scope="module")
def disk4_ground():
    dom = build_domain("disk", {"R": 1.0}, lam=1.0, h=0.25)
    basis = assemble_and_decompose(dom, alpha=0.5)
    rec = ground_state(Energy(basis, P), gaussian_bump_seed(basis, (0.0, 0.0), 0.4))
    assert rec.converged
    return basis, rec


@pytest.mark.parametrize("k", [4, 64], ids=["lanczos", "formed-s"])
def test_eigenpairs_solve_the_pencil(disk4_ground, k):
    # every theta the one Lanczos routine returns, for the plain and the
    # pinned energy, is one of the dense pencil H x = theta W x; each pinned
    # eigenvector y of (L - E) y = theta L y, h^2 y^T L y = 1, has
    # coefficients h^2 phi^T y that are the pencil's x, x^T W x = 1
    basis, rec = disk4_ground
    assert 4 < basis.K <= 64
    phi, w = dense_phi(basis), weights(basis)
    c = coefficients(basis, rec.u)
    for energy in (Energy(basis, P), PinnedEnergy(basis, P, 10.0, np.array([0.2, 0.1]))):
        hess = coefficient_hessian(energy, c)
        theta, y = morse._smallest_eigenpairs(energy, rec.u.values, k, vectors=True)
        assert theta.size == y.shape[1] == min(k, basis.K)
        assert np.all(np.diff(theta) >= 0.0)
        dense = scipy.linalg.eigh(np.column_stack([hess(e) for e in np.eye(basis.K)]),
                                  np.diag(w), eigvals_only=True)
        assert all(np.min(np.abs(dense - t)) <= 1e-10 for t in theta)
        if isinstance(energy, PinnedEnergy):
            x = basis.dom.h**2 * (phi.T @ y)
            for t, col in zip(theta, x.T):
                wx = w * col
                assert np.linalg.norm(hess(col) - t * wx) <= 1e-10 * np.linalg.norm(wx)
            assert np.allclose(x.T @ (w[:, None] * x), np.eye(theta.size), atol=1e-10)


def test_spectrum_repeats_bitwise(disk_host, disk_ground):
    first = hessian_spectrum(Energy(disk_host, P), disk_ground.u)
    again = hessian_spectrum(Energy(disk_host, P), disk_ground.u)
    assert first.eigenvalues.tobytes() == again.eigenvalues.tobytes()


def test_eigensolve_failures_are_typed(monkeypatch, square16, square_ground):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(EigSolveFailure, match="eigensolve failed"):
        hessian_spectrum(Energy(square16, P), square_ground.u)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda A, k, **kw: np.full(k, np.nan))
    with pytest.raises(EigSolveFailure, match="non-finite"):
        hessian_spectrum(Energy(square16, P), square_ground.u)


def test_restart_cap_binds_every_spectrum(monkeypatch, disk_host, disk_ground):
    # the Lanczos of the disk ground state takes 3 restarts; capped at 2 it
    # runs out, and that is a typed failure, not a spectrum
    monkeypatch.setattr(morse, "_LANCZOS_RESTARTS", 2)
    with pytest.raises(EigSolveFailure, match="No convergence"):
        hessian_spectrum(Energy(disk_host, P), disk_ground.u)


def test_classify_records_returns_spectra_in_order(annulus4, annulus_classes, annulus_saddle):
    records = [annulus_saddle.saddle] + [cl.representative for cl in annulus_classes.classes]
    spectra = classify_records(Energy(annulus4, P), records)
    assert [spec.morse_index for spec in spectra] == [2, 1, 1]
    for rec, spec in zip(records, spectra):
        want = hessian_spectrum(Energy(annulus4, P), rec.u).eigenvalues
        assert np.allclose(spec.eigenvalues, want, rtol=1e-12, atol=0.0)


def _fake_spectrum(morse_index: int, null_count: int = 0) -> HessianSpectrumReport:
    return HessianSpectrumReport(
        eigenvalues=np.array([-1.0, 1.0]),
        morse_index=morse_index,
        null_count=null_count,
        nondegenerate=null_count == 0,
    )


def _annulus_dom():
    return build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)


def test_morse_count_check_disk(disk_ground):
    # P(1) = b0 + b1 = 1 from the disk's mask
    report = morse_count_check([disk_ground], [_fake_spectrum(1)], disk_ground.u.dom)
    assert report.target_total == 1
    assert (report.target_index1, report.target_index2) == (1, 0)
    assert (report.found_index1, report.found_index2) == (1, 0)
    assert report.matches
    assert report.degenerate_tags == ()


def test_morse_count_check_annulus_census(disk_ground):
    recs = [disk_ground] * 3
    spectra = [_fake_spectrum(m) for m in (1, 1, 2)]
    report = morse_count_check(recs, spectra, _annulus_dom())  # P(1) = 1 + 1
    assert report.target_total == 3
    assert (report.target_index1, report.target_index2) == (2, 1)
    assert report.matches
    short = morse_count_check(recs[:2], spectra[:2], _annulus_dom())
    assert not short.matches


def test_morse_count_check_excludes_degenerate(disk_ground):
    recs = [disk_ground] * 3
    spectra = [_fake_spectrum(1), _fake_spectrum(1, null_count=2), _fake_spectrum(2)]
    report = morse_count_check(recs, spectra, _annulus_dom())
    assert report.counted == 2
    assert report.degenerate_tags == (recs[1].seed_tag,)
    assert (report.found_index1, report.found_index2) == (1, 1)
    assert not report.matches


def test_morse_count_check_validation(disk_ground):
    with pytest.raises(ValueError, match="shorter"):
        morse_count_check([disk_ground], [], disk_ground.u.dom)


def test_compactness_echo_spectrum_decays(disk_host, disk_ground):
    ps = perturbation_spectrum(disk_host, disk_ground.u)
    assert np.all(np.diff(ps) >= 0)
    assert np.all(ps >= -1e-12)
    top = ps[-1]
    # the ray direction is an exact eigenvector with eigenvalue p = 2
    assert top == pytest.approx(2.0, rel=1e-8)
    desc = ps[::-1]
    tail = desc[int(np.floor(0.9 * (len(desc) - 1)))]
    assert tail < 0.01 * top
