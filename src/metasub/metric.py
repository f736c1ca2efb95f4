"""Distance-matrix validation and approximate-triangle-inequality diagnostics.

Covers the semi-metric parameter (worst ratio d(i,j) / (d(i,k) + d(k,j))),
negative-type certification via the centered quadratic form, square-root
metric certification, and Jensen-Shannon distance matrices.

This module is also the package's leaf for its one zero rule, `scaled_tol`:
a quantity is zero when its size is at most eps * max(1, the size of the
values it is compared among). The rounding of a sum or difference grows with
its terms, and so does that tolerance once that size is at least 1, so the
verdicts of the ratios sigma and gamma stay as they are when D or f is scaled
up by a power of two.
Validation of outside input (`validate_distance`, a table's f(empty)) keeps
the absolute ABS_TOL. `validate_distance` returns a canonical copy: the one
matrix that a diversity oracle sums and that the checks here read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

ABS_TOL = 1e-12  # zero among values of unit size
REL_TOL = 1e-9  # the inequalities the checks verify hold up to this, relative


def scaled_tol(eps, size):
    """The one zero rule: eps * max(1, size), elementwise on arrays."""
    return eps * np.maximum(1.0, size)


def validate_distance(raw) -> np.ndarray:
    """Return a new, canonical matrix, the upper triangle mirrored below it on
    a zero diagonal of the sign given, or raise listing the first ten violated
    cells and the count of the rest."""
    D = np.asarray(raw, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {D.shape}")
    # non-finite cells are reported below; inf - inf is NaN, which is no asymmetry
    with np.errstate(invalid="ignore", over="ignore"):
        asymmetric = np.abs(D - D.T) > ABS_TOL
    diagonal = np.abs(D.diagonal()) > ABS_TOL
    negative = D < -ABS_TOL
    finite = np.isfinite(D).all()
    if finite and not (diagonal.any() or asymmetric.any() or negative.any()):
        D = np.where(np.tri(len(D), dtype=bool), D.T, D)  # a symmetric D keeps its bits
        np.fill_diagonal(D, D.diagonal() * 0.0)
        return D
    # a check failed: list the cells, an asymmetric pair once, from its upper cell
    diagonal = np.flatnonzero(diagonal)
    asymmetric = np.argwhere(np.triu(asymmetric, 1))
    negative = np.argwhere(negative)
    non_finite = [] if finite else ["non-finite entry"]
    count = len(diagonal) + len(asymmetric) + len(negative) + len(non_finite)
    violations = list(itertools.islice(itertools.chain(
        (f"nonzero diagonal at ({i},{i}): {D[i, i]!r}" for i in diagonal),
        (f"asymmetry at ({i},{j}): {D[i, j]!r} vs {D[j, i]!r}" for i, j in asymmetric),
        (f"negative entry at ({i},{j}): {D[i, j]!r}" for i, j in negative),
        non_finite), 10))
    rest = [f"and {count - 10} more"] if count > 10 else []
    raise ValidationError("invalid distance matrix: " + "; ".join(violations + rest))


@dataclass(frozen=True)
class SemiMetricReport:
    sigma: float
    is_infinite: bool = False
    witness: tuple[int, int, int] | None = None

    def to_dict(self) -> dict:
        return {
            "sigma": None if self.is_infinite else self.sigma,
            "is_infinite": self.is_infinite,
            "witness": list(self.witness) if self.witness else None,
        }


def semi_metric_parameter(D: np.ndarray) -> SemiMetricReport:
    """Smallest sigma with d(i,j) <= sigma*(d(i,k)+d(k,j)) over all triples.

    A positive entry whose every two-leg path has zero length yields the
    infinite flag. n < 3 reports sigma 0 by convention. Witnesses are the
    first in (i, j, k) order; each row i is one pass over the (j, k) plane.
    An entry or leg sum is zero when at most scaled_tol(ABS_TOL, max |D|).
    """
    n = D.shape[0]
    if n < 3:
        return SemiMetricReport(0.0)
    tol = scaled_tol(ABS_TOL, np.abs(D).max())
    best = 0.0
    witness = None
    off_diagonal = ~np.eye(n, dtype=bool)
    for i in range(n):
        denom = D[i] + D.T  # [j, k] = d(i,k) + d(k,j)
        legs = (denom > tol) & off_diagonal & off_diagonal[i]  # k != i, j
        positive = off_diagonal[i] & (D[i] > tol)
        stuck = positive & ~legs.any(axis=1)
        if stuck.any():
            j = int(np.argmax(stuck))
            return SemiMetricReport(0.0, is_infinite=True, witness=(i, j, min({0, 1, 2} - {i, j})))
        ratio = np.divide(D[i][:, None], denom, out=np.zeros((n, n)),
                          where=positive[:, None] & legs)
        at = int(np.argmax(ratio))
        if ratio.flat[at] > best:
            best = float(ratio.flat[at])
            witness = (i, *divmod(at, n))
    return SemiMetricReport(best, witness=witness)


def is_negative_type(D: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """Decide x^T D x <= 0 for all x on the sum-zero hyperplane.

    Checked spectrally: the largest eigenvalue of P D P, with P the
    centering projector, must not exceed scaled_tol(tol, max |D|). Returns
    the decision and that eigenvalue.
    """
    n = D.shape[0]
    P = np.eye(n) - np.full((n, n), 1.0 / n)
    centered = P @ D @ P
    # symmetrize against round-off before the eigen-solve
    centered = (centered + centered.T) / 2.0
    eigvals = np.linalg.eigvalsh(centered)
    top = float(eigvals[-1])
    return bool(top <= scaled_tol(tol, np.abs(D).max())), top


def is_sqrt_metric(D: np.ndarray, tol: float = 1e-9) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff the entrywise square root (0 at an accepted negative) satisfies
    every triangle inequality up to scaled_tol(tol, sqrt(max |D|)), the size of
    the roots it compares; the witness is the first broken (i, j > i, k)."""
    root = np.sqrt(np.maximum(D, 0.0))
    n = D.shape[0]
    tol = scaled_tol(tol, np.sqrt(np.abs(D).max()))
    off_diagonal = ~np.eye(n, dtype=bool)
    for i in range(n):
        # [j, k]: root(i,j) > root(i,k) + root(j,k) + tol, for k != i, j
        broken = (root[i][:, None] > root[i] + root + tol) & off_diagonal & off_diagonal[i]
        broken[:i + 1] = False
        if broken.any():
            return False, (i, *divmod(int(np.argmax(broken)), n))
    return True, None


def euclidean(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of a point matrix."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def js_divergence(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Jensen-Shannon divergence with natural logarithm; 0*log(0) := 0. On a
    matrix q of distributions, one per row, one divergence per row. A sum that
    rounds below zero (1.0 against 0.9999999999999999 gives -5.55e-17) is 0.0."""
    m = (p + q) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):  # in the terms `where` drops
        value = (0.5 * np.where(p > 0, p * np.log(p / m), 0.0).sum(-1)
                 + 0.5 * np.where(q > 0, q * np.log(q / m), 0.0).sum(-1))
    return np.maximum(value, 0.0)


def js_divergence_matrix(distributions: Sequence[Sequence[float]]) -> np.ndarray:
    """Pairwise JS divergences of probability vectors as a distance matrix."""
    probs = np.asarray(distributions, dtype=float)
    if probs.ndim != 2:
        raise ValidationError("distributions must share a common support size")
    for idx, p in enumerate(probs):
        if np.any(p < 0):
            raise ValidationError(f"distribution {idx} has a negative entry")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError(f"distribution {idx} sums to {p.sum()!r}, not 1")
    return validate_distance(np.array([js_divergence(p, probs) for p in probs]))
