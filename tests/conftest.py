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
from fracfield.model import Energy
from fracfield.spectral import (
    SpectralBasis,
    _block_operators,
    assemble_and_decompose,
    assemble_laplacian,
)
from fracfield.topology import band_saddle, moving_mirrors, multiplicity_search

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
    centers = [
        (ANNULUS_MID_RADIUS * np.cos(k * np.pi / 4), ANNULUS_MID_RADIUS * np.sin(k * np.pi / 4))
        for k in range(8)
    ]
    return multiplicity_search(Energy(annulus4, 2.0), centers, ball_radius=1.0)


@pytest.fixture(scope="session")
def count_products():
    """A context manager that counts the calls of the SpectralBasis product
    it names made inside it.

    `with count_products("green") as calls:` leaves the count in calls[0].
    """

    @contextlib.contextmanager
    def counting(name):
        calls = [0]
        product = getattr(SpectralBasis, name)

        def counted(self, *args):
            calls[0] += 1
            return product(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SpectralBasis, name, counted)
            yield calls

    return counting


@pytest.fixture(scope="session")
def annulus_saddle_run(annulus4, annulus_classes, count_products):
    """The saddle between the lowest class and its image under the first
    mirror that moves it, with the number of calls it made of each product
    of the basis, by name."""
    lo = annulus_classes.classes[0].representative.u
    mirror, *_ = moving_mirrors(lo)
    names = ("operator", "green")
    with contextlib.ExitStack() as stack:
        calls = {name: stack.enter_context(count_products(name)) for name in names}
        report = band_saddle(Energy(annulus4, 2.0), lo, mirror)
    return report, {name: c[0] for name, c in calls.items()}


@pytest.fixture(scope="session")
def annulus_saddle(annulus_saddle_run):
    return annulus_saddle_run[0]


@pytest.fixture(scope="session")
def unblocked_basis():
    """Builds the full-span basis from one dense eigendecomposition of all of A.

    An independent reference for assemble_and_decompose, which decomposes A
    block by block in its symmetry frames. driver="evr" runs LAPACK's MRRR
    routine and driver="evd" the divide and conquer routine the blocks use,
    both in place on the whole matrix; L and G agree with the blocked
    build's to rounding. The basis has a single block of each, in the
    identity frame, so its products are plain dense ones.
    """

    def build(dom, alpha=0.5, driver="evr"):
        # A is symmetric, so its transpose is the same matrix in Fortran
        # order, which LAPACK overwrites instead of copying
        A = assemble_laplacian(dom).toarray()
        mu, phi = scipy.linalg.eigh(A.T, overwrite_a=True, driver=driver)
        phi /= dom.h
        flip = phi[np.abs(phi).argmax(axis=0), np.arange(mu.size)] < 0
        phi[:, flip] *= -1.0
        L, G, start = _block_operators(mu, phi, dom.h, alpha)
        return SpectralBasis(dom, alpha, scipy.sparse.identity(mu.size, format="csr"),
                             [(L, G)], start)

    return build
