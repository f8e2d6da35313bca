"""Second-variation spectra, Morse indices, and the solution-count comparison.

On nodal values the second variation of the energy at u sends v to
(L - E) v, L = (-Delta)^alpha + I the basis's operator and E the
objective's nodal curvature (model.Energy.curvature): h'(u) for the plain
energy. It is never formed; the objective applies it only through its
pencil. Its spectrum reaches max W, W = mu^alpha + 1 the eigenvalues of L,
about 12 at h = 0.25, and its bottom eigenvalues sit close together on that
scale. So every eigenvalue reported here is a theta of the pencil
(L - E) y = theta L y, which is S = W^-1/2 H W^-1/2 = I - F^T F on mode
coefficients, F = h sqrt(D) phi W^-1/2, D = h'(u) >= 0: S <= I, and all but a
few of its eigenvalues cluster at 1. By Sylvester's law of inertia the pencil
has as many negative, zero and positive theta as L - E has eigenvalues; by
Ostrowski's theorem each theta has the sign of the matching eigenvalue and
equals it divided by some weight in [min W, max W]. At a critical point u of
the energy, (L - E) u = (1 - p) L u, so 1 - p is a theta.

The basis spans the grid, so F is square and F F^T has the eigenvalues of
F^T F: T = I - F F^T = I - sqrt(D) G sqrt(D), with G = L^-1 the basis's
Green operator, has S's spectrum, and so the counts above. The objective
supplies the problem (model.Energy.pencil). The plain energy hands Lanczos
T, whose product is one symmetric pass over the Green blocks
(spectral.SpectralBasis.green), from the start vector F 1 = h sqrt(D) s,
s = phi W^-1/2 1 the basis's start: it has a component along every mode, so
both copies of a repeated theta are found, which a start vector in the
symmetric sector alone, such as ones(n), misses. A PinnedEnergy's penalty has
an indefinite nodal Hessian and no square root, so it hands Lanczos the
generalized problem itself, with M = L and Minv = G, run as ARPACK's mode 2
(Lehoucq, Sorensen and Yang, ARPACK Users' Guide, 1998) from s, the nodal
image of S's ones(K): the Krylov spaces are those of S, mapped to nodes. A
RestrictedEnergy's pencil is I's, on the whole space, which the saddle's
Morse index counts. This Lanczos, capped at _LANCZOS_RESTARTS
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
    pencil (L - E) y = theta L y (those of S), ascending; the largest exceeds
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
    """Count negative and null modes from the smallest theta of the pencil, k = 6, 12, ...

    k doubles until the largest of the k exceeds DEFAULT_EPS_NULL, so no null
    mode is cut off. Raises EigSolveFailure when the eigensolve fails, and
    DomainMismatch when u lives on another domain.
    """
    eps = DEFAULT_EPS_NULL
    energy.basis.check_same_domain(u.dom)
    values = u.values
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
    """The min(k, K) smallest theta of op y = theta M y, the problem that
    energy.pencil supplies at values (M = I where it gives none), ascending,
    with their eigenvectors y, h^2 y^T M y = 1, as columns if vectors is set
    (else None). For a PinnedEnergy that is the pencil (L - E) y = theta L y.

    Lanczos (ARPACK's eigsh, mode 2 where there is an M) from the pencil's
    start vector, with the restart generator fixed: by default ARPACK draws
    both from OS entropy. It restarts at most _LANCZOS_RESTARTS times; for
    k = K it forms op and M from K products each instead. Raises
    EigSolveFailure when the solve fails or runs out of restarts.
    """
    K = energy.basis.K
    k = min(k, K)
    h = energy.basis.dom.h
    if not np.any(h_prime(energy.p, values)):
        # T = I: Lanczos from T's start vector, 0, would find nothing
        return np.ones(k), np.eye(K, k) / h if vectors else None
    op, M, Minv, start = energy.pencil(values)
    try:
        if k < K:
            def linear(f):
                return None if f is None else scipy.sparse.linalg.LinearOperator(
                    (K, K), matvec=f, dtype=float)

            found = scipy.sparse.linalg.eigsh(linear(op), k=k, M=linear(M), Minv=linear(Minv),
                                              which="SA", v0=start, tol=1e-12,
                                              return_eigenvectors=vectors, rng=0,
                                              maxiter=_LANCZOS_RESTARTS)
        else:  # eigsh needs k < K: form the operators from K products
            def formed(f):
                return None if f is None else np.column_stack([f(e) for e in np.eye(K)])

            found = scipy.linalg.eigh(formed(op), formed(M), eigvals_only=not vectors)
    except (scipy.sparse.linalg.ArpackError, scipy.linalg.LinAlgError) as exc:
        raise EigSolveFailure(f"Hessian eigensolve failed: {exc}") from exc
    ev, vecs = found if vectors else (found, None)
    if not np.all(np.isfinite(ev)):
        raise EigSolveFailure("Hessian spectrum contains non-finite eigenvalues")
    order = np.argsort(ev)
    return ev[order], None if vecs is None else vecs[:, order] / h


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
    energy.basis.check_same_domain(u.dom)
    values, r = energy.point(u.values)
    Q = energy.quadratic(values, r)
    J = energy.j(values, Q)
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
