"""Joint analysis of measure vectors.

Pairwise-complete correlation matrices with a t-approximation significance
flag, PCA via singular value decomposition of the centered matrix, and
ridge regression evaluated with nested leave-one-out cross validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as scipy_stats

from .wals import DesignMatrix

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

    def column(self, measure: str) -> np.ndarray:
        return self.values[:, self.measures.index(measure)]

    def complete_rows(self, columns: Sequence[int] | None = None) -> np.ndarray:
        """Boolean row mask: complete for the involved columns."""
        sub = self.values if columns is None else self.values[:, list(columns)]
        return ~np.isnan(sub).any(axis=1)


@dataclass(frozen=True)
class CorrelationMatrix:
    method: str
    measures: tuple[str, ...]
    values: np.ndarray
    significant: np.ndarray
    n_complete: np.ndarray

    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray          # components x variables
    scores: np.ndarray            # observations x components
    explained_ratios: np.ndarray  # descending, sums to 1


@dataclass(frozen=True)
class RidgeReport:
    rmse: float
    error_reduction: float
    predictions: tuple[float, ...]
    chosen_alphas: tuple[float, ...]
    alpha_grid: tuple[float, ...]


def _t_significant(r: float, n: int) -> bool:
    """Two-sided t-test on a correlation coefficient at p < 0.05."""
    denom = 1.0 - r * r
    if denom <= 1e-15:
        return True
    t = abs(r) * math.sqrt((n - 2) / denom)
    p = 2.0 * float(scipy_stats.t.sf(t, n - 2))
    return p < P_THRESHOLD


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, bool]:
    """Sample Pearson r with a p < 0.05 flag.

    Returns (nan, False) when either input has zero variance.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d vectors of equal length")
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
    return scipy_stats.rankdata(np.asarray(values, dtype=float), method="average")


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
    p = len(m.measures)
    values = np.full((p, p), math.nan)
    significant = np.zeros((p, p), dtype=bool)
    n_complete = np.zeros((p, p), dtype=int)
    avail = m.available()
    for i in range(p):
        values[i, i] = 1.0
        significant[i, i] = True
        n_complete[i, i] = int(avail[:, i].sum())
        for j in range(i + 1, p):
            both = avail[:, i] & avail[:, j]
            n = int(both.sum())
            n_complete[i, j] = n_complete[j, i] = n
            if n < 3:
                continue
            r, sig = corr(m.values[both, i], m.values[both, j])
            values[i, j] = values[j, i] = r
            significant[i, j] = significant[j, i] = sig
    return CorrelationMatrix(method, m.measures, values, significant, n_complete)


def standardize(
    matrix: np.ndarray, column_names: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column with the population standard deviation.

    Returns (z, means, stds); raises on a zero-variance column, naming it.
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
    z = (x - means) / stds
    return z, means, stds


def pca(matrix: np.ndarray, orient_column: int = 0) -> PcaResult:
    """Principal components of the centered matrix via SVD.

    Explained ratios are singular values squared over their sum.  Each
    component is oriented so its loading on ``orient_column`` is
    nonnegative (falling back to the first nonzero loading), making signs
    reproducible across linear-algebra backends.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-d matrix with at least 2 rows")
    centered = x - x.mean(axis=0)
    if not np.any(np.abs(centered) > 1e-12):
        raise ValueError("degenerate input: all rows are equal")
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    total = float(np.sum(s**2))
    ratios = s**2 / total
    scores = u * s
    for k in range(vt.shape[0]):
        pivot = vt[k, orient_column]
        if abs(pivot) <= 1e-12:
            nonzero = np.nonzero(np.abs(vt[k]) > 1e-12)[0]
            pivot = vt[k, nonzero[0]] if len(nonzero) else 1.0
        if pivot < 0:
            vt[k] = -vt[k]
            scores[:, k] = -scores[:, k]
    return PcaResult(loadings=vt, scores=scores, explained_ratios=ratios)


def ridge_loocv(
    design: DesignMatrix | np.ndarray,
    target: Sequence[float],
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
) -> RidgeReport:
    """Nested leave-one-out evaluation of ridge regression.

    For each held-out row the penalty is chosen by an inner leave-one-out
    over the remaining rows (ties go to the earlier grid entry), the model
    is refit without the held-out row and used to predict it.  The report
    carries the outer RMSE and error_reduction = 1 - RMSE, the gain over a
    random baseline whose expected RMSE on a standardized target is 1.

    The intercept is not penalized.  Its normal equation gives
    intercept = mean(y) - mean(x) . coef for any coef, and substituting
    that leaves plain ridge on the column-centered training rows, so
    centering fits the intercept exactly.  One thin SVD of the centered
    training design, Xc = U S V^T, then serves every alpha in the grid
    (Hastie, Tibshirani & Friedman, The Elements of Statistical Learning,
    section 3.4.1).  With m training rows and shrink factors
    d = s^2 / (s^2 + alpha):

    - fitted values: yhat = mean(y) + U (d * U^T yc)
    - leverages: h = 1/m + (U * U) d
    - inner LOO residuals: e = (y - yhat) / (1 - h); an alpha with
      |1 - h| <= 1e-12 on any row scores infinity and is not chosen (if
      no alpha scores finite, the last one is used)
    - coefficients at the chosen alpha: coef = V (s / (s^2 + alpha) * U^T yc)
    """
    x = design.matrix if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0]:
        raise ValueError("design and target shapes do not match")
    n = len(y)
    if n < 3:
        raise ValueError("need at least 3 rows for leave-one-out evaluation")
    if len(alpha_grid) == 0:
        raise ValueError("alpha_grid must be nonempty")

    alphas = np.asarray(alpha_grid, dtype=float)[:, None]
    predictions = np.empty(n)
    chosen = np.empty(n)
    index = np.arange(n)
    for i in range(n):
        rest = index != i
        x_mean, y_mean = x[rest].mean(axis=0), y[rest].mean()
        u, s, vt = np.linalg.svd(x[rest] - x_mean, full_matrices=False)
        # Directions with a zero singular value fit nothing at any alpha;
        # dropping them keeps alpha = 0 from dividing zero by zero.
        keep = s > s.max(initial=0.0) * max(x.shape) * np.finfo(float).eps
        u, s, vt = u[:, keep], s[keep], vt[keep]
        yc = y[rest] - y_mean
        uty = u.T @ yc
        shrink = s**2 / (s**2 + alphas)  # grid x rank
        resid = yc - (shrink * uty) @ u.T  # grid x training rows
        one_minus_h = 1.0 - 1.0 / (n - 1) - shrink @ (u**2).T
        loo = np.divide(
            resid, one_minus_h, out=np.full_like(resid, np.inf), where=np.abs(one_minus_h) > 1e-12
        )
        finite = np.isfinite(loo).all(axis=1)
        scores = np.where(finite, np.sqrt(np.mean(loo**2, axis=1)), np.inf)
        best = int(np.argmin(scores)) if finite.any() else len(alpha_grid) - 1
        coef = vt.T @ (s / (s**2 + alphas[best]) * uty)
        intercept = y_mean - x_mean @ coef
        predictions[i] = float(x[i] @ coef + intercept)
        chosen[i] = alpha_grid[best]
    rmse = float(np.sqrt(np.mean((y - predictions) ** 2)))
    return RidgeReport(
        rmse=rmse,
        error_reduction=1.0 - rmse,
        predictions=tuple(float(v) for v in predictions),
        chosen_alphas=tuple(float(a) for a in chosen),
        alpha_grid=tuple(float(a) for a in alpha_grid),
    )
