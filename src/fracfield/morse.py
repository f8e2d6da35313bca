"""Second-variation spectra, Morse indices, and the solution-count comparison.

In the mode coordinates the second variation of the energy at u is
the symmetric K x K operator H v = W v - h^2 Phi^T (h'(u) Phi v), W = mu^alpha + 1,
a diagonal quadratic-form part minus the Gram operator of the modes under the
node weights h^2 h'(u), applied by the map Energy.hessian returns and never
formed. Its spectrum reaches max W, about 12 at h = 0.25, and its bottom
eigenvalues sit close together on that scale. So Lanczos runs instead on the
congruent S = W^-1/2 H W^-1/2 = I - W^-1/2 Phi^T D Phi W^-1/2, D = h^2 h'(u) >= 0:
S <= I, and all but a few of its eigenvalues cluster at 1. Its eigenvalues are
those of the pencil H x = theta W x, and every eigenvalue reported here is
such a theta. By Sylvester's law of inertia S has as many negative, zero and
positive eigenvalues as H; by Ostrowski's theorem each theta has the sign of
the matching eigenvalue of H and equals it divided by some weight in
[min W, max W]. At a critical point u of the energy, H u = (1 - p) W u,
so 1 - p is an eigenvalue of S. This Lanczos, capped at _LANCZOS_RESTARTS
restarts, is the package's only Hessian eigensolve: topology.annulus_level's
check of the point it returns runs it on a PinnedEnergy.

The Morse index is the number of eigenvalues below -DEFAULT_EPS_NULL;
eigenvalues within DEFAULT_EPS_NULL of zero are counted as null and make the
point degenerate. Both need only the bottom of the spectrum, and only the
HessianSpectrumReport holds the index: records carry none. The count check
compares the index-1/index-2 census of the spectra against the
prediction 2 P1 - 1, split as P1 points of index 1 and P1 - 1 points of
index 2. P1 = b0 + b1 is the Poincare polynomial at t = 1, with the Betti
numbers read from the domain's mask (domain.mask_betti): 1 on a disk or a
rectangle, 2 on an annulus whose ring the grid keeps closed.

Indices are reported for the full space, not the manifold tangent: every
solution carries one negative ray direction, so manifold minima score 1 and
manifold saddles score 2.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .domain import GridDomain, mask_betti
from .errors import EigSolveFailure, OffManifold
from .model import Energy, h_prime
from .nehari import SolutionRecord
from .spectral import Field

# The null threshold on theta, which has the sign of H's eigenvalue,
# and topology's escape threshold. A mode of H within 1e-6 min W of zero has
# |theta| <= 1e-6, so it stays null; one with |lambda_H| up to 1e-6 max W may
# also be flagged, which errs toward calling a point degenerate.
DEFAULT_EPS_NULL = 1e-6
# the restart cap of every Lanczos solve; ARPACK's own default is 10 K
_LANCZOS_RESTARTS = 50


@dataclass(frozen=True)
class HessianSpectrumReport:
    """Census of the second variation at one field.

    eigenvalues holds the k >= min(6, K) smallest eigenvalues theta of the
    pencil H x = theta W x (those of S), ascending; the largest exceeds
    DEFAULT_EPS_NULL unless k = K. theta has the sign of the matching
    eigenvalue of H, not its size. morse_index counts those below
    -DEFAULT_EPS_NULL, null_count those within DEFAULT_EPS_NULL of zero;
    nondegenerate means null_count is zero, and only then is the
    critical-group polynomial of the point the single power t^morse_index.
    """

    eigenvalues: np.ndarray
    morse_index: int
    null_count: int
    nondegenerate: bool


def hessian_spectrum(energy: Energy, u: Field) -> HessianSpectrumReport:
    """Count negative and null modes from the smallest theta of S, k = 6, 12, ...

    k doubles until the largest of the k exceeds DEFAULT_EPS_NULL, so no null
    mode is cut off. Raises EigSolveFailure when the eigensolve fails.
    """
    eps = DEFAULT_EPS_NULL
    values = energy.values(energy.coords(u))
    k = 6
    ev = _smallest_eigenpairs(energy, values, k)[0]
    while ev[-1] <= eps and ev.size < energy.basis.K:
        k *= 2
        ev = _smallest_eigenpairs(energy, values, k)[0]
    morse = int(np.sum(ev < -eps))
    null = int(np.sum(np.abs(ev) <= eps))
    return HessianSpectrumReport(
        eigenvalues=ev,
        morse_index=morse,
        null_count=null,
        nondegenerate=null == 0,
    )


def _smallest_eigenpairs(
    energy: Energy, values: np.ndarray, k: int, vectors: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The min(k, K) smallest theta of H x = theta W x, H = energy.hessian(values),
    ascending, with their eigenvectors x = W^-1/2 v, v S's unit eigenvectors,
    as columns if vectors is set (else None).

    Lanczos (ARPACK) on S with the start vector and the restart generator fixed: by
    default ARPACK draws them from OS entropy. It restarts at most _LANCZOS_RESTARTS
    times. Raises EigSolveFailure when the solve fails or runs out of restarts.
    """
    K = energy.basis.K
    k = min(k, K)
    scale = 1.0 / np.sqrt(energy.w)
    if not np.any(h_prime(energy.p, values)):
        # S = I: Lanczos from one start vector would find one copy of 1
        return np.ones(k), scale[:, None] * np.eye(K, k) if vectors else None
    hess = energy.hessian(values)
    try:
        if k < K:
            S = scipy.sparse.linalg.LinearOperator(
                (K, K), matvec=lambda v: scale * hess(scale * v), dtype=float)
            found = scipy.sparse.linalg.eigsh(S, k=k, which="SA", v0=np.ones(K), tol=1e-12,
                                              return_eigenvectors=vectors, rng=0,
                                              maxiter=_LANCZOS_RESTARTS)
        else:  # eigsh needs k < K: form S from K products
            S = scale[:, None] * np.column_stack([hess(c) for c in np.diag(scale)])
            found = scipy.linalg.eigh(S, eigvals_only=not vectors)
    except (scipy.sparse.linalg.ArpackError, scipy.linalg.LinAlgError) as exc:
        raise EigSolveFailure(f"Hessian eigensolve failed: {exc}") from exc
    ev, vecs = found if vectors else (found, None)
    if not np.all(np.isfinite(ev)):
        raise EigSolveFailure("Hessian spectrum contains non-finite eigenvalues")
    order = np.argsort(ev)
    return ev[order], None if vecs is None else scale[:, None] * vecs[:, order]


def ray_second_derivative(
    energy: Energy,
    u: Field,
    tol: float = 1e-8,
) -> float:
    """d^2/dt^2 I(t u) at t = 1 for u on the manifold: Q - h^2 sum h'(u) u^2.

    Strictly negative there ((1 - p) Q for the power family), which is what
    makes every solution at least index 1. Raises OffManifold when u does not
    satisfy |J(u)| <= tol Q.
    """
    c = energy.coords(u)
    values = energy.values(c)
    Q = energy.quadratic(c)
    J = energy.j(c, values)
    if abs(J) > tol * Q:
        raise OffManifold(f"|J(u)| = {abs(J):.3g} exceeds {tol:.1g} Q = {tol * Q:.3g}")
    return Q - energy.h2 * float(np.sum(h_prime(energy.p, values) * values**2))


def classify_records(
    energy: Energy,
    records: Sequence[SolutionRecord],
) -> list[HessianSpectrumReport]:
    """hessian_spectrum of each record's field, in record order."""
    return [hessian_spectrum(energy, r.u) for r in records]


@dataclass(frozen=True)
class MorseCountReport:
    """Census of Morse indices against the topological prediction.

    The target counts come from 2 P1 - 1 split as P1 index-1 points and
    P1 - 1 index-2 points; the found counts come from the spectra.
    degenerate_tags lists records excluded from the census because their
    spectrum has null modes (the prediction assumes nondegenerate points);
    matches compares only the counted ones.
    """

    target_total: int
    target_index1: int
    target_index2: int
    found_index1: int
    found_index2: int
    counted: int
    degenerate_tags: tuple[str, ...]
    matches: bool


def morse_count_check(
    records: Sequence[SolutionRecord],
    spectra: Sequence[HessianSpectrumReport],
    dom: GridDomain,
) -> MorseCountReport:
    """Compare the index-1/index-2 counts of records' spectra against 2 P1 - 1,
    with P1 = b0 + b1 from dom's mask.

    spectra[k] is the spectrum of records[k] (see classify_records); a length
    mismatch raises ValueError. Records with null modes are reported as
    degenerate and left out of the comparison instead of being asserted
    against a count that assumes nondegeneracy.
    """
    p1 = sum(mask_betti(dom))
    degenerate: list[str] = []
    idx1 = idx2 = counted = 0
    for rec, spec in zip(records, spectra, strict=True):
        if not spec.nondegenerate:
            degenerate.append(rec.seed_tag)
            continue
        counted += 1
        if spec.morse_index == 1:
            idx1 += 1
        elif spec.morse_index == 2:
            idx2 += 1
    return MorseCountReport(
        target_total=2 * p1 - 1,
        target_index1=p1,
        target_index2=p1 - 1,
        found_index1=idx1,
        found_index2=idx2,
        counted=counted,
        degenerate_tags=tuple(degenerate),
        matches=idx1 == p1 and idx2 == p1 - 1,
    )
