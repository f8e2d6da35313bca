"""Shared expensive fixtures: bases and solution sets reused across files.

The annulus at lam=4 with h=0.25 is the workhorse configuration for orbit
counting and saddle hunting; building its full-span basis and running the
eight-seed multistart once per session keeps the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

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
def annulus_band(annulus4, annulus_classes):
    """Climbing-image band between two adjacent images of the lowest class."""
    nl = power_model()
    lo = annulus_classes.classes[0].representative.u
    rotated = adjacent_orbit_image(annulus4, lo)
    assert rotated is not None
    return band_saddle(annulus4, nl, lo, rotated, tol=1e-6)


@pytest.fixture(scope="session")
def evr_basis():
    """Builds the full-span basis that LAPACK's evr routine gives on a copy of A.

    An independent reference for assemble_and_decompose, which runs evd in
    place: the two agree to rounding.
    """

    def build(dom, alpha=0.5):
        A = assemble_laplacian(dom).toarray()
        mu, vecs = scipy.linalg.eigh(A, driver="evr")
        phi = vecs / dom.h
        flip = phi[np.abs(phi).argmax(axis=0), np.arange(mu.size)] < 0
        phi[:, flip] *= -1.0
        return SpectralBasis(dom, alpha, mu, phi)

    return build
