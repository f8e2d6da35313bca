"""Second-variation spectra, Morse indices, and the solution-count comparison.

In the mode coordinates the second variation of the energy at u is
the symmetric K x K operator H v = (mu^alpha + 1) v - h^2 Phi^T (h'(u) Phi v),
a diagonal quadratic-form part minus the Gram operator of the modes under the
node weights h^2 h'(u), applied by Energy.hessian_vector and never formed. The
Morse index is the number of eigenvalues below -eps_null; eigenvalues within
eps_null of zero are counted as null and make the point degenerate. Both need
only the bottom of the spectrum. The count check compares the index-1/index-2
census of a solution list against the prediction 2 P1 - 1 built from
hard-coded Poincare polynomials (rectangle, disk: 1; annulus: 1 + t), split
as P1 points of index 1 and P1 - 1 points of index 2.

Indices are reported for the full space, not the manifold tangent: every
solution carries one negative ray direction, so manifold minima score 1 and
manifold saddles score 2.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import EigSolveFailure, OffManifold, UnknownDomainTopology
from .model import Energy, Nonlinearity, h_prime
from .nehari import SolutionRecord
from .spectral import Field, SpectralBasis

_POINCARE_AT_ONE = {"rectangle": 1, "disk": 1, "annulus": 2}


def default_eps_null(basis: SpectralBasis) -> float:
    """1e-6 (mu_1^alpha + 1): wide enough to catch rotational-orbit modes."""
    return 1e-6 * float(basis.weights[0])


@dataclass(frozen=True)
class HessianSpectrumReport:
    """Census of the second variation at one field.

    eigenvalues holds the k >= min(6, K) smallest eigenvalues, ascending; the
    largest exceeds eps_null unless k = K. morse_index counts those below
    -eps_null, null_count those within [-eps_null, eps_null]; nondegenerate
    means null_count is zero, and only then is the critical-group polynomial
    of the point the single power t^morse_index.
    """

    eigenvalues: np.ndarray
    morse_index: int
    null_count: int
    nondegenerate: bool
    eps_null: float


def hessian_spectrum(
    basis: SpectralBasis,
    nl: Nonlinearity,
    u: Field,
    eps_null: float | None = None,
) -> HessianSpectrumReport:
    """Count negative and null modes from the smallest eigenvalues, k = 6, 12, ...

    k doubles until the largest of the k exceeds eps_null, so no null mode is
    cut off. Raises EigSolveFailure when the eigensolve fails.
    """
    eps = default_eps_null(basis) if eps_null is None else float(eps_null)
    if eps <= 0.0:
        raise ValueError(f"eps_null must be positive, got {eps_null}")
    basis.check_same_domain(u.dom)
    e = Energy(basis, nl)
    values = e.values(u.coeffs)
    k = 6
    ev = _smallest_eigenvalues(e, values, k)
    while ev[-1] <= eps and ev.size < basis.K:
        k *= 2
        ev = _smallest_eigenvalues(e, values, k)
    morse = int(np.sum(ev < -eps))
    null = int(np.sum(np.abs(ev) <= eps))
    return HessianSpectrumReport(
        eigenvalues=ev,
        morse_index=morse,
        null_count=null,
        nondegenerate=null == 0,
        eps_null=eps,
    )


def _smallest_eigenvalues(e: Energy, values: np.ndarray, k: int) -> np.ndarray:
    """The min(k, K) smallest Hessian eigenvalues at these values, ascending."""
    if not np.any(h_prime(e.nl, values)):
        # H = W: its products are exact, so Lanczos from one start vector
        # would find one copy of each repeated weight
        return np.sort(e.w)[:k]
    return _smallest_eigenpairs(lambda v: e.hessian_vector(values, v), e.w.size, k)[0]


def _smallest_eigenpairs(
    matvec: Callable[[np.ndarray], np.ndarray], K: int, k: int,
    vectors: bool = False, maxiter: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The min(k, K) smallest eigenvalues of the symmetric K x K operator matvec,
    ascending, with their eigenvectors as columns if vectors is set (else None).

    Lanczos (ARPACK) with the start vector and the restart generator fixed: by
    default ARPACK draws them from OS entropy. maxiter caps its restarts (ARPACK's
    default is 10 K). Raises EigSolveFailure when the solve fails or runs out.
    """
    try:
        if k < K:
            H = scipy.sparse.linalg.LinearOperator((K, K), matvec=matvec, dtype=float)
            found = scipy.sparse.linalg.eigsh(H, k=k, which="SA", v0=np.ones(K), tol=1e-12,
                                              return_eigenvectors=vectors, rng=0,
                                              maxiter=maxiter)
        else:  # eigsh needs k < K: form H from K products
            found = scipy.linalg.eigh(np.column_stack([matvec(c) for c in np.eye(K)]),
                                      eigvals_only=not vectors)
    except (scipy.sparse.linalg.ArpackError, scipy.linalg.LinAlgError) as exc:
        raise EigSolveFailure(f"Hessian eigensolve failed: {exc}") from exc
    ev, vecs = found if vectors else (found, None)
    if not np.all(np.isfinite(ev)):
        raise EigSolveFailure("Hessian spectrum contains non-finite eigenvalues")
    order = np.argsort(ev)
    return ev[order], None if vecs is None else vecs[:, order]


def ray_second_derivative(
    basis: SpectralBasis,
    nl: Nonlinearity,
    u: Field,
    tol: float = 1e-8,
) -> float:
    """d^2/dt^2 I(t u) at t = 1 for u on the manifold: Q - h^2 sum h'(u) u^2.

    Strictly negative there ((1 - p) Q for the power family), which is what
    makes every solution at least index 1. Raises OffManifold when u does not
    satisfy |J(u)| <= tol Q.
    """
    basis.check_same_domain(u.dom)
    e = Energy(basis, nl)
    values = e.values(u.coeffs)
    Q = e.quadratic(u.coeffs)
    J = e.j(u.coeffs, values)
    if abs(J) > tol * Q:
        raise OffManifold(f"|J(u)| = {abs(J):.3g} exceeds {tol:.1g} Q = {tol * Q:.3g}")
    return Q - e.h2 * float(np.sum(h_prime(nl, values) * values**2))


def classify_record(
    basis: SpectralBasis,
    nl: Nonlinearity,
    record: SolutionRecord,
    eps_null: float | None = None,
) -> tuple[SolutionRecord, HessianSpectrumReport]:
    """Attach the Morse index of the record's field to the record itself."""
    report = hessian_spectrum(basis, nl, record.u, eps_null=eps_null)
    return dataclasses.replace(record, morse_index=report.morse_index), report


def classify_records(
    basis: SpectralBasis,
    nl: Nonlinearity,
    records: Sequence[SolutionRecord],
    eps_null: float | None = None,
    workers: int = 1,
) -> list[tuple[SolutionRecord, HessianSpectrumReport]]:
    """classify_record over a batch; spectra are independent, so threads help."""
    if workers > 1 and len(records) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda r: classify_record(basis, nl, r, eps_null), records))
    return [classify_record(basis, nl, r, eps_null) for r in records]


@dataclass(frozen=True)
class MorseCountReport:
    """Census of Morse indices against the topological prediction.

    The target counts come from 2 P1 - 1 split as P1 index-1 points and
    P1 - 1 index-2 points. degenerate_tags lists records excluded from the
    census because their spectrum has null modes (the prediction assumes
    nondegenerate points); matches compares only the counted ones.
    """

    shape_id: str
    p1: int
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
    shape_id: str,
    spectra: Sequence[HessianSpectrumReport] | None = None,
) -> MorseCountReport:
    """Compare the index-1/index-2 counts of records against 2 P1 - 1.

    Every record must already carry a Morse index (see classify_record).
    When the matching spectra are supplied, records with null modes are
    reported as degenerate and left out of the comparison instead of being
    asserted against a count that assumes nondegeneracy.
    """
    if shape_id not in _POINCARE_AT_ONE:
        raise UnknownDomainTopology(
            f"no Poincare polynomial stored for shape {shape_id!r}; "
            f"known: {sorted(_POINCARE_AT_ONE)}"
        )
    if spectra is not None and len(spectra) != len(records):
        raise ValueError(
            f"got {len(spectra)} spectra for {len(records)} records; must align"
        )
    p1 = _POINCARE_AT_ONE[shape_id]
    degenerate: list[str] = []
    idx1 = idx2 = counted = 0
    for k, rec in enumerate(records):
        if rec.morse_index is None:
            raise ValueError(f"record {rec.seed_tag!r} carries no Morse index")
        if spectra is not None and not spectra[k].nondegenerate:
            degenerate.append(rec.seed_tag)
            continue
        counted += 1
        if rec.morse_index == 1:
            idx1 += 1
        elif rec.morse_index == 2:
            idx2 += 1
    return MorseCountReport(
        shape_id=shape_id,
        p1=p1,
        target_total=2 * p1 - 1,
        target_index1=p1,
        target_index2=p1 - 1,
        found_index1=idx1,
        found_index2=idx2,
        counted=counted,
        degenerate_tags=tuple(degenerate),
        matches=idx1 == p1 and idx2 == p1 - 1,
    )
