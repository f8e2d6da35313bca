"""Shared expensive fixtures: bases and solution sets reused across files.

The annulus at lam=4 with h=0.25 is the workhorse configuration for orbit
counting and saddle hunting; building its full-span basis and running the
eight-seed multistart once per session keeps the suite fast.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from fracfield.domain import build_domain
from fracfield.model import power_model
from fracfield.spectral import SpectralBasis, assemble_and_decompose, assemble_laplacian
from fracfield.topology import adjacent_orbit_image, band_saddle, multiplicity_search

ANNULUS_MID_RADIUS = 2.8  # 0.5 (R + r) lam with R=1, r=0.4, lam=4


@pytest.fixture(scope="session")
def annulus4():
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    return assemble_and_decompose(dom, alpha=0.5)


@pytest.fixture(scope="session")
def disk_host():
    dom = build_domain("disk", {"R": 1.0}, lam=1.0, h=0.1)
    return assemble_and_decompose(dom, alpha=0.5)


@pytest.fixture(scope="session")
def annulus_classes(annulus4):
    nl = power_model()
    centers = [
        (ANNULUS_MID_RADIUS * np.cos(k * np.pi / 4), ANNULUS_MID_RADIUS * np.sin(k * np.pi / 4))
        for k in range(8)
    ]
    return multiplicity_search(annulus4, nl, centers, ball_radius=1.0)


@pytest.fixture(scope="session")
def count_matvecs():
    """A context manager that counts the SpectralBasis.matvec calls made inside it.

    `with count_matvecs() as calls:` leaves the count in calls[0].
    """

    @contextlib.contextmanager
    def counting():
        calls = [0]
        matvec = SpectralBasis.matvec

        def counted(self, c):
            calls[0] += 1
            return matvec(self, c)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SpectralBasis, "matvec", counted)
            yield calls

    return counting


@pytest.fixture(scope="session")
def annulus_band_run(annulus4, annulus_classes, count_matvecs):
    """Climbing-image band between two adjacent images of the lowest class,
    with the number of products with phi it made."""
    nl = power_model()
    lo = annulus_classes.classes[0].representative.u
    rotated = adjacent_orbit_image(annulus4, lo)
    assert rotated is not None
    with count_matvecs() as calls:
        report = band_saddle(annulus4, nl, lo, rotated, tol=1e-6)
    return report, calls[0]


@pytest.fixture(scope="session")
def annulus_band(annulus_band_run):
    return annulus_band_run[0]


@pytest.fixture(scope="session")
def unblocked_basis():
    """Builds the full-span basis from one dense eigendecomposition of all of A.

    An independent reference for assemble_and_decompose, which decomposes A
    block by block in its symmetry frames. driver="evr" runs LAPACK's MRRR
    routine and driver="evd" the divide and conquer routine the blocks use,
    both in place on the whole matrix; the pairs agree with the blocked
    build's to rounding. The eigenvectors are the basis's single block, in
    the identity frame, so its products with phi are plain dense ones.
    """

    def build(dom, alpha=0.5, driver="evr"):
        # A is symmetric, so its transpose is the same matrix in Fortran
        # order, which LAPACK overwrites instead of copying
        A = assemble_laplacian(dom).toarray()
        mu, phi = scipy.linalg.eigh(A.T, overwrite_a=True, driver=driver)
        phi /= dom.h
        flip = phi[np.abs(phi).argmax(axis=0), np.arange(mu.size)] < 0
        phi[:, flip] *= -1.0
        return SpectralBasis(dom, alpha, scipy.sparse.identity(mu.size, format="csr"),
                             [(mu, phi)])

    return build
