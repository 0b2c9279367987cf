"""Joint analysis of measure vectors: numerics only.

Pairwise-complete correlation matrices with a significance flag, PCA via
singular value decomposition of the centered matrix, and ridge regression
evaluated with nested leave-one-out cross validation.  Everything here works
on plain arrays and knows nothing of WALS; ``wals`` builds the design
matrices that ``ridge_loocv`` is given.  The flag's Student-t
tail has a closed form at integer degrees of freedom and is computed with
``math``; the package does not use scipy, which only the tests use as a
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

P_THRESHOLD = 0.05

# 13 log-spaced penalties; unspecified upstream, recorded in run metadata.
DEFAULT_ALPHA_GRID = tuple(float(a) for a in np.logspace(-3, 3, 13))


@dataclass(frozen=True)
class MeasureMatrix:
    """Treebank-by-measure values with NaN marking unavailable cells."""

    treebank_ids: tuple[str, ...]
    measures: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.treebank_ids), len(self.measures)):
            raise ValueError("values shape does not match row/column labels")

    def available(self) -> np.ndarray:
        return ~np.isnan(self.values)

    def complete_rows(self) -> np.ndarray:
        """Boolean row mask: rows with every column available."""
        return ~np.isnan(self.values).any(axis=1)


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray
    significant: np.ndarray
    n_complete: np.ndarray


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray          # components x variables
    scores: np.ndarray            # observations x components
    explained_ratios: np.ndarray  # descending, sums to 1


@dataclass(frozen=True)
class RidgeReport:
    """Nested leave-one-out results; the last axis of each array is the target."""

    rmse: np.ndarray             # targets
    error_reduction: np.ndarray  # targets
    predictions: np.ndarray      # rows x targets
    chosen_alphas: np.ndarray    # rows x targets
    alpha_grid: tuple[float, ...]


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) at integer ``df`` >= 1: one minus A(t|df), A&S 26.7.3 (odd), 26.7.4 (even)."""
    theta = math.atan(abs(t) / math.sqrt(df))
    term, series, c2 = 1.0, 0.0, math.cos(theta) ** 2
    for k in range(1 + df % 2, df, 2):  # ratios 1/2, 3/4, ... (even) or 2/3, 4/5, ... (odd)
        series += term
        term *= k / (k + 1) * c2
    if df % 2 == 0:
        return 1.0 - math.sin(theta) * series
    return 1.0 - 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)


def _t_significant(r: float, n: int) -> bool:
    """Two-sided t-test on a correlation coefficient at p < 0.05."""
    denom = 1.0 - r * r
    if denom <= 1e-15:
        return True
    t = abs(r) * math.sqrt((n - 2) / denom)
    return _t_two_sided_p(t, n - 2) < P_THRESHOLD


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, bool]:
    """Sample Pearson r of two equal-length vectors with a p < 0.05 flag.

    Returns (nan, False) when either input has zero variance.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    n = len(xa)
    if n < 3:
        raise ValueError("need at least 3 observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx <= 0.0 or vy <= 0.0:
        return math.nan, False
    r = float(xc @ yc) / math.sqrt(vx * vy)
    r = max(-1.0, min(1.0, r))
    return r, _t_significant(r, n)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    v = np.asarray(values, dtype=float)
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> tuple[float, bool]:
    """Pearson correlation of average ranks, same significance flag."""
    return pearson(average_ranks(x), average_ranks(y))


def correlation_matrix(m: MeasureMatrix, method: str = "pearson") -> CorrelationMatrix:
    """Pairwise-complete correlations between measure columns.

    Cells with fewer than 3 complete rows, or with a zero-variance side,
    are left undefined (NaN).  The diagonal is exactly 1.
    """
    if method == "pearson":
        corr = pearson
    elif method == "spearman":
        corr = spearman
    else:
        raise ValueError(f"unknown correlation method {method!r}")
    avail = m.available()
    n_complete = avail.T.astype(int) @ avail
    significant = np.eye(len(m.measures), dtype=bool)
    values = np.where(significant, 1.0, math.nan)
    for i, j in zip(*np.nonzero(np.triu(n_complete >= 3, k=1))):
        both = avail[:, i] & avail[:, j]
        r, sig = corr(m.values[both, i], m.values[both, j])
        values[i, j] = values[j, i] = r
        significant[i, j] = significant[j, i] = sig
    return CorrelationMatrix(values, significant, n_complete)


def standardize(matrix: np.ndarray, column_names: Sequence[str] | None = None) -> np.ndarray:
    """Z-score each column with the population standard deviation.

    A 1-d input is one column.  Raises on a zero-variance column, naming it.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    means = x.mean(axis=0)
    stds = x.std(axis=0)  # ddof=0
    for j, s in enumerate(stds):
        if s <= 0.0:
            name = column_names[j] if column_names is not None else f"column {j}"
            raise ValueError(f"zero variance in {name}; cannot standardize")
    return (x - means) / stds


def pca(matrix: np.ndarray, orient_column: int = 0) -> PcaResult:
    """Principal components of the centered 2-d matrix via SVD.

    Components with singular values at rounding level are dropped.
    Explained ratios are singular values squared over their sum.  Each
    component is oriented so its loading on ``orient_column`` is
    nonnegative (falling back to the first nonzero loading), making signs
    reproducible across linear-algebra backends.
    """
    x = np.asarray(matrix, dtype=float)
    centered = x - x.mean(axis=0)
    if not np.any(np.abs(centered) > 1e-12):
        raise ValueError("degenerate input: all rows are equal")
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    # Components at rounding level carry no variance (centering removes one
    # dimension); the cut is the one ridge_loocv uses.
    keep = s > s.max() * max(centered.shape) * np.finfo(float).eps
    u, s, vt = u[:, keep], s[keep], vt[keep]
    total = float(np.sum(s**2))
    ratios = s**2 / total
    # Each row of vt is a unit vector, so some loading exceeds 1e-12.
    nonzero = np.abs(vt) > 1e-12
    pivot = np.where(nonzero[:, orient_column], orient_column, nonzero.argmax(axis=1))
    signs = np.where(vt[np.arange(len(vt)), pivot] < 0, -1.0, 1.0)
    return PcaResult(loadings=vt * signs[:, None], scores=u * s * signs, explained_ratios=ratios)


def ridge_loocv(
    design: np.ndarray,
    targets: np.ndarray | Sequence[float],
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
) -> RidgeReport:
    """Nested leave-one-out evaluation of ridge regression on each target.

    ``targets`` is rows x targets, a row per design row; a 1-d target is one column.  For each
    held-out row and each target the penalty is chosen by an inner
    leave-one-out over the remaining rows (ties go to the earlier grid
    entry), the model is refit without the held-out row and used to predict
    it.  The report carries, per target, the outer RMSE and
    error_reduction = 1 - RMSE, the gain over a random baseline whose
    expected RMSE on a standardized target is 1.  An uninformative design
    does not read 0: a constant one predicts a held-out y by the other
    rows' mean, -y/(n-1), so error_reduction = -1/(n-1), -0.077 at n = 14.

    The intercept is not penalized.  Its normal equation gives
    intercept = mean(y) - mean(x) . coef for any coef, and substituting
    that leaves plain ridge on the column-centered training rows, so
    centering fits the intercept exactly.  One thin SVD of the centered
    training design, Xc = U S V^T, then serves every alpha in the grid and
    every target column (Hastie, Tibshirani & Friedman, The Elements of
    Statistical Learning, section 3.4.1).  With m training rows and shrink
    factors d = s^2 / (s^2 + alpha):

    - fitted values: yhat = mean(y) + U (d * U^T yc)
    - leverages: h = 1/m + (U * U) d, the same for every target
    - inner LOO residuals: e = (y - yhat) / (1 - h); an alpha with
      |1 - h| <= 1e-12 on any row scores infinity and is not chosen (if
      no alpha scores finite, the last one is used)
    - coefficients at the chosen alpha: coef = V (s / (s^2 + alpha) * U^T yc)
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n = len(y)
    if n < 3:
        raise ValueError("need at least 3 rows for leave-one-out evaluation")

    grid = np.asarray(alpha_grid, dtype=float)
    predictions = np.empty(y.shape)
    chosen = np.empty(y.shape)
    index = np.arange(n)
    for i in range(n):
        rest = index != i
        x_mean, y_mean = x[rest].mean(axis=0), y[rest].mean(axis=0)
        u, s, vt = np.linalg.svd(x[rest] - x_mean, full_matrices=False)
        # Directions with a zero singular value fit nothing at any alpha;
        # dropping them keeps alpha = 0 from dividing zero by zero.
        keep = s > s.max(initial=0.0) * max(x.shape) * np.finfo(float).eps
        u, s, vt = u[:, keep], s[keep], vt[keep]
        yc = y[rest] - y_mean
        uty = u.T @ yc  # rank x targets
        shrink = s**2 / (s**2 + grid[:, None])  # grid x rank
        resid = yc - u @ (shrink[:, :, None] * uty)  # grid x training rows x targets
        one_minus_h = (1.0 - 1.0 / (n - 1) - shrink @ (u**2).T)[:, :, None]
        loo = np.divide(
            resid, one_minus_h, out=np.full_like(resid, np.inf), where=np.abs(one_minus_h) > 1e-12
        )
        finite = np.isfinite(loo).all(axis=1)  # grid x targets
        scores = np.where(finite, np.sqrt(np.mean(loo**2, axis=1)), np.inf)
        best = np.where(finite.any(axis=0), np.argmin(scores, axis=0), len(grid) - 1)
        coef = vt.T @ (s[:, None] / (s[:, None] ** 2 + grid[best]) * uty)  # columns x targets
        intercept = y_mean - x_mean @ coef
        predictions[i] = x[i] @ coef + intercept
        chosen[i] = grid[best]
    rmse = np.sqrt(np.mean((y - predictions) ** 2, axis=0))
    return RidgeReport(
        rmse=rmse,
        error_reduction=1.0 - rmse,
        predictions=predictions,
        chosen_alphas=chosen,
        alpha_grid=tuple(float(a) for a in alpha_grid),
    )
