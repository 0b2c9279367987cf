import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from morphcomplex.analysis import (
    DEFAULT_ALPHA_GRID,
    MeasureMatrix,
    _t_significant,
    _t_two_sided_p,
    average_ranks,
    correlation_matrix,
    pca,
    pearson,
    ridge_loocv,
    spearman,
    standardize,
)


def pearson_oracle(x, y):
    """Definitional covariance-over-variances computation."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def rank_oracle(v):
    """Average ranks by explicit position counting."""
    out = []
    for value in v:
        less = sum(1 for u in v if u < value)
        equal = sum(1 for u in v if u == value)
        out.append(less + (equal + 1) / 2)
    return out


class TestPearson:
    def test_exact_linear_relation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        r, sig = pearson(x, [2 * v + 1 for v in x])
        assert r == pytest.approx(1.0)
        assert sig

    def test_negation(self):
        x = [1.0, 2.0, 5.0, 7.0]
        r, _ = pearson(x, [-v for v in x])
        assert r == pytest.approx(-1.0)

    def test_hand_computable_case(self):
        r, sig = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        assert r == pytest.approx(0.8)
        assert not sig  # n=4, p is approximately 0.2

    def test_zero_variance_marker(self):
        r, sig = pearson([1, 1, 1], [1, 2, 3])
        assert math.isnan(r)
        assert not sig

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        r1, _ = pearson(x, y)
        r2, _ = pearson(3.0 * x + 7.0, 0.5 * y - 2.0)
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            r, _ = pearson(x, y)
            assert r == pytest.approx(pearson_oracle(list(x), list(y)), abs=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    def test_significance_appears_with_larger_n(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 1, 50)
        y = x + rng.normal(scale=0.3, size=50)
        _, sig = pearson(x, y)
        assert sig


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = [0.1, 1.0, 2.0, 3.5, 9.0]
        rho, _ = spearman(x, [math.exp(v) for v in x])
        assert rho == pytest.approx(1.0)

    def test_reversed_order(self):
        x = [1.0, 2.0, 3.0, 4.0]
        rho, _ = spearman(x, list(reversed(x)))
        assert rho == pytest.approx(-1.0)

    def test_tie_handling(self):
        np.testing.assert_allclose(average_ranks([1, 2, 2, 4]), [1, 2.5, 2.5, 4])

    def test_rank_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.integers(0, 5, size=int(rng.integers(3, 15))).astype(float)
            np.testing.assert_allclose(average_ranks(v), rank_oracle(list(v)))

    def test_matches_scipy_rankdata_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.integers(0, 6, size=int(rng.integers(1, 30))) * rng.choice([0.5, 1.0, -3.0])
            assert np.array_equal(average_ranks(v), stats.rankdata(v, method="average"))

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base, _ = spearman(x, y)
        for transform in (np.exp, np.tanh, lambda v: v**3):
            rho, _ = spearman(transform(x), y)
            assert rho == pytest.approx(base, abs=1e-12)


def matrix_with_holes():
    values = np.array(
        [
            [1.0, 2.0, np.nan],
            [2.0, 4.1, 1.0],
            [3.0, 5.9, 2.0],
            [4.0, 8.2, 4.0],
            [5.0, 9.8, np.nan],
        ]
    )
    return MeasureMatrix(("t1", "t2", "t3", "t4", "t5"), ("a", "b", "c"), values)


class TestCorrelationMatrix:
    def test_unit_diagonal_and_symmetry(self):
        cm = correlation_matrix(matrix_with_holes(), "pearson")
        np.testing.assert_allclose(np.diag(cm.values), 1.0)
        np.testing.assert_allclose(cm.values, cm.values.T)

    def test_duplicated_column_perfect_correlation(self):
        values = np.column_stack([np.arange(5.0), np.arange(5.0)])
        cm = correlation_matrix(MeasureMatrix(tuple("abcde"), ("x", "y"), values))
        assert cm.values[0, 1] == pytest.approx(1.0)

    def test_pairwise_complete_counts(self):
        cm = correlation_matrix(matrix_with_holes())
        assert cm.n_complete[0, 1] == 5
        assert cm.n_complete[0, 2] == 3
        assert not np.isnan(cm.values[0, 2])

    def test_undefined_cell_with_too_few_rows(self):
        values = np.array([[1.0, np.nan], [2.0, 1.0], [3.0, 2.0], [4.0, np.nan]])
        cm = correlation_matrix(MeasureMatrix(tuple("abcd"), ("x", "y"), values))
        assert np.isnan(cm.values[0, 1])
        assert cm.n_complete[0, 1] == 2

    def test_every_cell_matches_a_pairwise_loop(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(9, 5))
        values[rng.random(size=values.shape) < 0.4] = np.nan
        cm = correlation_matrix(MeasureMatrix(tuple("abcdefghi"), tuple("vwxyz"), values))
        avail = ~np.isnan(values)
        for i in range(5):
            for j in range(5):
                both = avail[:, i] & avail[:, j]
                assert cm.n_complete[i, j] == both.sum()
                if i == j:
                    expected = (1.0, True)
                elif both.sum() < 3:
                    expected = (math.nan, False)
                else:
                    expected = pearson(values[both, i], values[both, j])
                np.testing.assert_equal((cm.values[i, j], cm.significant[i, j]), expected)

    def test_spearman_variant(self):
        cm = correlation_matrix(matrix_with_holes(), "spearman")
        assert cm.values[0, 1] == pytest.approx(1.0)  # strictly increasing pair
        assert correlation_matrix(matrix_with_holes()).values[0, 1] != pytest.approx(1.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix(matrix_with_holes(), "kendall")


class TestStandardize:
    def test_hand_case_population_stddev(self):
        z = standardize(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(z[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-9)

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(5)
        z = standardize(rng.normal(size=(40, 3)) * 7 + 3)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 2))
        z1 = standardize(x)
        z2 = standardize(z1)
        np.testing.assert_allclose(z1, z2, atol=1e-12)

    def test_zero_variance_names_the_column(self):
        x = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        with pytest.raises(ValueError, match="msp"):
            standardize(x, ["ttr", "msp"])


def eig_oracle(x):
    """Eigendecomposition of the covariance matrix, descending order."""
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / len(x)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order]


class TestPca:
    def test_rank_one_data(self):
        t = np.linspace(0, 1, 10)
        x = np.column_stack([t, 2 * t])
        result = pca(x)
        assert result.explained_ratios[0] == pytest.approx(1.0)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 3))
        result = pca(x)
        eigvals, eigvecs = eig_oracle(x)
        for k in range(result.loadings.shape[0]):
            if result.explained_ratios[k] < 1e-9:
                continue
            dot = abs(float(result.loadings[k] @ eigvecs[:, k]))
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_loadings_orthonormal(self):
        rng = np.random.default_rng(8)
        result = pca(rng.normal(size=(12, 5)))
        gram = result.loadings @ result.loadings.T
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_full_reconstruction(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(9, 4))
        result = pca(x)
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(result.scores @ result.loadings, centered, atol=1e-6)

    def test_scores_covariance_diagonal(self):
        rng = np.random.default_rng(10)
        result = pca(rng.normal(size=(15, 4)))
        cov = result.scores.T @ result.scores
        off = cov - np.diag(np.diag(cov))
        np.testing.assert_allclose(off, 0.0, atol=1e-8)

    def test_ratios_sorted_and_sum_to_one(self):
        rng = np.random.default_rng(11)
        result = pca(rng.normal(size=(30, 6)))
        ratios = result.explained_ratios
        assert np.all(np.diff(ratios) <= 1e-12)
        assert float(ratios.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_gaussian_splits_evenly(self):
        rng = np.random.default_rng(12)
        result = pca(rng.normal(size=(5000, 2)))
        np.testing.assert_allclose(result.explained_ratios, [0.5, 0.5], atol=0.05)

    def test_orientation_on_requested_column(self):
        rng = np.random.default_rng(13)
        result = pca(rng.normal(size=(20, 4)), orient_column=2)
        assert np.all(result.loadings[:, 2] >= -1e-12)

    def test_orientation_falls_back_to_first_nonzero_loading(self):
        # Column 0 is orthogonal to columns 1 and 2, which are proportional:
        # the first component loads 0 on column 0, so its sign comes from
        # column 1.
        x = np.array([[1, 1, 2], [-1, 1, 2], [1, -1, -1], [-1, -1, -1]], dtype=float)
        centered = x - x.mean(axis=0)
        result = pca(centered)
        assert result.loadings.shape == (2, 3)
        assert abs(result.loadings[0, 0]) <= 1e-12
        for loadings in result.loadings:
            first = loadings[np.abs(loadings) > 1e-12][0]
            assert first > 0
        np.testing.assert_allclose(result.scores @ result.loadings, centered, atol=1e-12)

    def test_first_pc_ranking_invariant_under_column_rescaling(self):
        rng = np.random.default_rng(14)
        base = rng.normal(size=(18, 4)) + np.linspace(0, 3, 18)[:, None]
        scaled = base.copy()
        scaled[:, 1] *= 40.0
        r1 = pca(standardize(base)).scores[:, 0]
        r2 = pca(standardize(scaled)).scores[:, 0]
        assert list(np.argsort(r1)) == list(np.argsort(r2))

    def test_rounding_level_component_dropped(self):
        # Six centered rows span five dimensions; the sixth singular value
        # is rounding noise.
        x = np.random.default_rng(15).normal(size=(6, 8))
        result = pca(x)
        assert result.loadings.shape == (5, 8)
        assert result.scores.shape == (6, 5)
        assert float(result.explained_ratios.sum()) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            result.scores @ result.loadings, x - x.mean(axis=0), atol=1e-12
        )

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(ValueError):
            pca(np.ones((5, 3)))


def _augment(x):
    """Append an intercept column and the matching penalty mask."""
    ones = np.ones((x.shape[0], 1))
    x1 = np.hstack([x, ones])
    penalty = np.ones(x1.shape[1])
    penalty[-1] = 0.0  # intercept is never shrunk
    return x1, penalty


def ridge_fit(x, y, alpha):
    """Closed-form ridge solution; the intercept is not penalized."""
    x1, penalty = _augment(np.asarray(x, dtype=float))
    a = x1.T @ x1 + alpha * np.diag(penalty)
    w = np.linalg.solve(a, x1.T @ np.asarray(y, dtype=float))
    return w[:-1], float(w[-1])


def _loo_residuals(x1, y, alpha, penalty):
    """Exact leave-one-out residuals of a fixed-alpha ridge fit.

    Uses the linear-smoother identity e_i = (y_i - yhat_i) / (1 - h_ii);
    rows with leverage 1 get infinite residuals, which disqualifies that
    alpha during selection.
    """
    a = x1.T @ x1 + alpha * np.diag(penalty)
    w = np.linalg.solve(a, x1.T)  # p x n
    yhat = x1 @ (w @ y)
    leverage = np.einsum("ij,ji->i", x1, w)
    denom = 1.0 - leverage
    out = np.full(len(y), np.inf)
    ok = np.abs(denom) > 1e-12
    out[ok] = (y[ok] - yhat[ok]) / denom[ok]
    return out


def nested_loo_reference(x, y, alpha_grid=DEFAULT_ALPHA_GRID, inner_residuals=None):
    """Nested leave-one-out ridge with one linear solve per alpha per fold.

    ``inner_residuals(x, y, alpha)`` gives the inner LOO residuals; by
    default the leverage shortcut above.  Returns (chosen alphas,
    predictions, rmse).
    """
    if inner_residuals is None:
        def inner_residuals(x_tr, y_tr, alpha):
            x1_tr, penalty = _augment(x_tr)
            return _loo_residuals(x1_tr, y_tr, alpha, penalty)

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    predictions = np.empty(n)
    chosen = np.empty(n)
    index = np.arange(n)
    for i in range(n):
        rest = index != i
        x_tr, y_tr = x[rest], y[rest]
        best_alpha, best_rmse = None, math.inf
        for alpha in alpha_grid:
            resid = inner_residuals(x_tr, y_tr, alpha)
            rmse = float(np.sqrt(np.mean(resid**2))) if np.all(np.isfinite(resid)) else math.inf
            if rmse < best_rmse:
                best_alpha, best_rmse = alpha, rmse
        if best_alpha is None:
            best_alpha = alpha_grid[-1]
        coef, intercept = ridge_fit(x_tr, y_tr, best_alpha)
        predictions[i] = float(x[i] @ coef + intercept)
        chosen[i] = best_alpha
    rmse = float(np.sqrt(np.mean((y - predictions) ** 2)))
    return tuple(float(a) for a in chosen), predictions, rmse


def loo_refit_oracle(x, y, alpha):
    """Leave-one-out residuals by explicit refitting."""
    out = []
    for i in range(len(y)):
        mask = np.arange(len(y)) != i
        coef, intercept = ridge_fit(x[mask], y[mask], alpha)
        out.append(y[i] - (x[i] @ coef + intercept))
    return np.array(out)


def one_hot_design(rng, n, blocks=(3, 2, 4)):
    cols = []
    for width in blocks:
        assignment = np.arange(n) % width
        rng.shuffle(assignment)
        block = np.zeros((n, width))
        block[np.arange(n), assignment] = 1.0
        cols.append(block)
    return np.hstack(cols)


def assert_matches_reference(x, y, alpha_grid=DEFAULT_ALPHA_GRID, **reference_kwargs):
    chosen, predictions, rmse = nested_loo_reference(x, y, alpha_grid, **reference_kwargs)
    report = ridge_loocv(x, y, alpha_grid=alpha_grid)
    assert tuple(report.chosen_alphas[:, 0]) == chosen
    np.testing.assert_allclose(report.predictions[:, 0], predictions, rtol=0, atol=1e-9)
    assert report.rmse[0] == pytest.approx(rmse, rel=0, abs=1e-9)


class TestRidge:
    def test_loo_shortcut_matches_refit_oracle(self):
        # The inner leave-one-out scores come from the leverage shortcut; an
        # inner loop that refits without each row must choose the same
        # alphas and give the same predictions.
        rng = np.random.default_rng(15)
        grid = (0.001, 1.0, 100.0)
        for _ in range(3):
            x = rng.normal(size=(12, 4))
            y = rng.normal(size=12)
            assert_matches_reference(x, y, grid, inner_residuals=loo_refit_oracle)

    def test_reference_shortcut_matches_refit_oracle(self):
        rng = np.random.default_rng(15)
        for alpha in (0.001, 1.0, 100.0):
            x = rng.normal(size=(12, 4))
            y = rng.normal(size=12)
            x1, penalty = _augment(x)
            fast = _loo_residuals(x1, y, alpha, penalty)
            slow = loo_refit_oracle(x, y, alpha)
            np.testing.assert_allclose(fast, slow, atol=1e-8)

    def test_matches_solve_reference_random_design(self):
        rng = np.random.default_rng(20)
        assert_matches_reference(rng.normal(size=(15, 4)), rng.normal(size=15))

    def test_matches_solve_reference_one_hot_wider_than_tall(self):
        # Shaped like WALS one-hot designs: 30 treebanks of 24 languages, so
        # six rows repeat, and ~150 columns.
        rng = np.random.default_rng(21)
        languages = one_hot_design(rng, 24, blocks=(3, 4, 5, 6, 7, 3, 5, 4, 6, 5) * 3)
        x = languages[np.r_[0:24, 0:6]]
        assert x.shape[1] > x.shape[0]
        assert np.linalg.matrix_rank(x - x.mean(axis=0)) < x.shape[0] - 1
        y = rng.normal(size=30)
        assert_matches_reference(x, y)

    def test_matches_solve_reference_all_zero_design(self):
        rng = np.random.default_rng(22)
        assert_matches_reference(np.zeros((8, 3)), rng.normal(size=8))

    def test_matches_solve_reference_constant_column(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(10, 3))
        x[:, 1] = 2.5
        assert_matches_reference(x, rng.normal(size=10))

    def test_leverage_one_disqualifies_alpha_and_falls_back_to_last(self):
        # Four columns and five training rows: with (almost) no penalty the
        # fit interpolates, every leverage is 1 and no alpha scores finite.
        rng = np.random.default_rng(24)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=6)
        grid = (0.0, 1e-300)
        assert_matches_reference(x, y, grid)
        assert ridge_loocv(x, y, alpha_grid=grid).chosen_alphas[:, 0].tolist() == [1e-300] * 6

    def test_huge_alpha_predicts_training_mean(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        report = ridge_loocv(x, y, alpha_grid=[1e12])
        for i, prediction in enumerate(report.predictions[:, 0]):
            fold_mean = float(np.mean(np.delete(y, i)))
            assert prediction == pytest.approx(fold_mean, abs=1e-6)

    def test_intercept_not_penalized(self):
        # A penalized intercept would shrink these predictions toward 0.
        y = np.array([10.0, 10.0, 10.0, 10.0])
        x = np.zeros((4, 2))
        report = ridge_loocv(x, y, alpha_grid=[1e6])
        np.testing.assert_allclose(report.predictions, 10.0)
        assert report.rmse[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 14, 30])
    def test_constant_design_reads_minus_one_over_n_minus_one(self, n):
        """Each held-out y of a standardized target is predicted by the
        other rows' mean, -y/(n-1), so the RMSE is n/(n-1), not 1."""
        y = standardize(np.random.default_rng(n).normal(size=n))
        report = ridge_loocv(np.ones((n, 3)), y)
        np.testing.assert_allclose(report.predictions[:, 0], -y[:, 0] / (n - 1), rtol=0, atol=1e-15)
        assert report.error_reduction[0] == pytest.approx(-1 / (n - 1), rel=0, abs=1e-15)

    def test_linear_target_gives_high_error_reduction(self):
        rng = np.random.default_rng(17)
        x = one_hot_design(rng, 24)
        weights = rng.normal(size=x.shape[1])
        target = x @ weights
        target = standardize(target)
        report = ridge_loocv(x, target)
        assert report.error_reduction[0] > 0.9

    def test_report_consistency(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=9)
        report = ridge_loocv(x, y)
        assert report.rmse.shape == report.error_reduction.shape == (1,)
        assert report.rmse[0] >= 0.0
        assert report.error_reduction[0] == pytest.approx(1.0 - report.rmse[0])
        assert report.predictions.shape == report.chosen_alphas.shape == (9, 1)
        assert all(a in DEFAULT_ALPHA_GRID for a in report.chosen_alphas[:, 0])

    def test_target_columns_match_one_dimensional_calls(self):
        # A signal column, a noise column and a mixed one choose different
        # alphas; each must be scored as if it were fitted alone.
        rng = np.random.default_rng(25)
        x = one_hot_design(rng, 20)
        signal = x @ rng.normal(size=x.shape[1])
        noise = rng.normal(size=20)
        y = np.column_stack([signal, noise, signal + 2 * noise])
        report = ridge_loocv(x, y)
        assert report.predictions.shape == report.chosen_alphas.shape == (20, 3)
        assert len({tuple(report.chosen_alphas[:, k]) for k in range(3)}) > 1
        for k in range(3):
            single = ridge_loocv(x, y[:, k])
            assert report.chosen_alphas[:, k].tolist() == single.chosen_alphas[:, 0].tolist()
            np.testing.assert_allclose(
                report.predictions[:, k], single.predictions[:, 0], rtol=0, atol=1e-12
            )
            assert report.rmse[k] == pytest.approx(single.rmse[0], rel=0, abs=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            ridge_loocv(np.zeros((2, 1)), [1.0, 2.0])


class TestSignificance:
    def test_matches_scipy_t_distribution(self):
        rng = np.random.default_rng(9)
        r_values = np.concatenate([rng.uniform(-1, 1, 300), [0.0, 0.5, -0.5, 0.997]])
        for r in r_values:
            for n in (3, 4, 10, 30):
                t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
                assert _t_significant(r, n) == (2 * stats.t.sf(t, n - 2) < 0.05)

    def test_threshold_neighbourhood(self):
        # Critical |r| for n = 10 at p = 0.05 is 0.6319...; both sides agree with scipy.
        for r in np.linspace(0.60, 0.66, 61):
            t = r * math.sqrt(8 / (1 - r * r))
            assert _t_significant(r, 10) == (2 * stats.t.sf(t, 8) < 0.05)


def test_cli_import_does_not_load_scipy_stats():
    import morphcomplex

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(morphcomplex.__file__))}
    code = "import sys, morphcomplex.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_closed_form_t_tail_matches_scipy():
    t = np.concatenate([np.linspace(0, 40, 161), np.geomspace(1e-3, 1e3, 61), [-2.5, -0.3]])
    for df in [*range(1, 61), 100, 1000, 5000]:
        got = [_t_two_sided_p(x, df) for x in t]
        np.testing.assert_allclose(got, 2 * stats.t.sf(np.abs(t), df), rtol=0, atol=1e-12)
