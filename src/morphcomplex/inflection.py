"""Inflection accuracy: predict inflected forms from lemma + features.

The learner maps each (lemma, form) training pair to an edit script
(prefix/suffix operations around the longest common substring), then
trains a multiclass averaged perceptron over script classes with sparse
character and feature-bundle indicators, in dual form from training to
prediction: a mistake patches every training score, and a query scores
its Gram row against the training instances times their coefficients,
so no weight matrix is built.  The reported measure is the negative best
mean exact-match accuracy under 3-fold cross validation over random
hyperparameter draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .sampling import Sample


def canonical_bundle(feats: Iterable[tuple[str, str]]) -> str:
    """Order-insensitive Key=Value bundle string."""
    return "|".join(f"{k}={v}" for k, v in sorted(feats))


@dataclass(frozen=True)
class InflectionInstance:
    lemma: str
    feature_bundle: str
    form: str


def extract_instances(sample: Sample) -> list[InflectionInstance]:
    """One instance per token with a lemma and features; exact duplicates
    collapse to one, but conflicting forms for a (lemma, bundle) all stay.
    Instances come in the order of their first token."""
    tb = sample.treebank
    lemma, bundle, form = (
        col[sample.tokens].astype(np.int64) for col in (tb.lemma_ids, tb.bundle_ids, tb.form_ids)
    )
    keep = np.flatnonzero((lemma != 0) & (bundle != 0) & (tb.form_lengths[form] > 0))
    codes = (lemma[keep] * len(tb.bundles) + bundle[keep]) * len(tb.forms) + form[keep]
    first = keep[np.sort(np.unique(codes, return_index=True)[1])]
    names = [canonical_bundle(pairs) for pairs in tb.bundles]
    return [
        InflectionInstance(tb.lemmas[l], names[b], tb.forms[f])
        for l, b, f in zip(lemma[first].tolist(), bundle[first].tolist(), form[first].tolist())
    ]


@dataclass(frozen=True, order=True)
class EditScript:
    """Prefix/suffix rewrite turning a lemma into an inflected form."""

    prefix_drop: int
    prefix_add: str
    suffix_drop: int
    suffix_add: str

    def apply(self, lemma: str) -> str:
        """The rewritten lemma; drops longer than the lemma are clamped, so
        a lemma too short for them keeps no character."""
        stem = lemma[self.prefix_drop : max(self.prefix_drop, len(lemma) - self.suffix_drop)]
        return self.prefix_add + stem + self.suffix_add


def derive_edit_script(lemma: str, form: str) -> EditScript:
    """Align lemma and form on their longest common substring.

    Ties break on the leftmost start in the lemma, then in the form.  With
    no common substring the script degenerates to a full replacement.
    Applying the result to the lemma reproduces the form exactly.
    """
    if not lemma or not form:
        raise ValueError("lemma and form must be nonempty")
    match = SequenceMatcher(None, lemma, form, autojunk=False).find_longest_match()
    start_l, start_f, length = match
    if length == 0:
        return EditScript(len(lemma), form, 0, "")
    end_l, end_f = start_l + length, start_f + length
    return EditScript(start_l, form[:start_f], len(lemma) - end_l, form[end_f:])


def featurize(lemma: str, feature_bundle: str, ngram_order: int) -> list[str]:
    """Sparse binary features for one instance: edge-anchored lemma character
    n-grams of orders 1..K, one indicator per Key=Value pair, and each pair
    conjoined with the final lemma character."""
    feats = ["bias"]
    for n in range(1, min(ngram_order, len(lemma)) + 1):
        feats += ["^" + lemma[:n], lemma[-n:] + "$"]
    for pair in feature_bundle.split("|"):
        feats += [pair, f"{pair}&end={lemma[-1]}"]
    return feats


@dataclass(frozen=True)
class Hyperparams:
    ngram_order: int
    epochs: int


@dataclass
class InflectionModel:
    """Edit-script classes and the perceptron in dual form over the training
    ``rows`` (see ``train``): a query scores its Gram row against ``rows``
    times ``dual``, so the summed weights ``X.T @ dual`` are never built."""

    scripts: tuple[EditScript, ...]
    rows: FeatureRows
    dual: np.ndarray  # int64, training instances x classes
    params: Hyperparams


# Instances scored per argmax; a mistake ends a block early.  Fastest size.
_BLOCK = 32
# Features on more than this many entries take the Gram matrix's dense
# product; the rest add one per pair of their entries.
_DENSE = 64
# Rows per block of the Gram matrix's dense product, and sparse features per pass.
_ROWS = 256


@dataclass(frozen=True)
class FeatureRows:
    """Instance-by-feature counts in CSR form: row ``r`` lists the feature
    ids ``cols[indptr[r] : indptr[r + 1]]``, a repeated feature once per
    occurrence.  ``ids`` interns the feature strings and may hold features
    that no row here uses."""

    ids: dict[str, int]
    indptr: np.ndarray
    cols: np.ndarray

    def take(self, rows: np.ndarray) -> FeatureRows:
        """The given rows, in the given order, over the same ``ids``."""
        lengths = np.diff(self.indptr)[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        starts = np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        return FeatureRows(self.ids, indptr, self.cols[starts + np.arange(indptr[-1])])


def _count_matrix(feats: Sequence[Sequence[str]], ids: dict[str, int]) -> FeatureRows:
    """Rows of ``feats`` interned by ``ids``; a feature new to ``ids`` gets the next id."""
    cols = np.fromiter((ids.setdefault(f, len(ids)) for x in feats for f in x), dtype=np.int64)
    return FeatureRows(ids, np.cumsum([0] + [len(x) for x in feats]), cols)


def _gram(x: FeatureRows) -> np.ndarray:
    """Exact ``X @ X.T`` in the smallest unsigned type holding its largest
    (diagonal) entry.  Features on more than ``_DENSE`` entries are
    multiplied as a dense float matrix in row blocks, exact since every sum
    is an integer no larger than that entry: float32 below 2**24.  Each other feature adds 1 to ``G[a, b]``
    for every pair of its entries on rows a and b, so a feature counted
    twice on a row adds 2 * 2 to its diagonal."""
    n, n_ids = len(x.indptr) - 1, len(x.ids)
    rows = np.repeat(np.arange(n), np.diff(x.indptr))
    cells, counts = np.unique(rows * n_ids + x.cols, return_counts=True)
    top = np.bincount(cells // n_ids, counts * counts, minlength=n).max(initial=0)
    gram = np.empty((n, n), dtype=np.min_scalar_type(int(top)))
    per_feature = np.bincount(x.cols, minlength=n_ids)
    dense = per_feature > _DENSE
    on = dense[x.cols]
    xd = np.zeros((n, int(dense.sum())), dtype=np.float32 if top < 2**24 else np.float64)
    xd_flat = rows[on] * xd.shape[1] + (np.cumsum(dense) - 1)[x.cols[on]]
    np.add.at(xd.reshape(-1), xd_flat, np.ones(len(xd_flat), xd.dtype))
    for r in range(0, n, _ROWS):
        gram[r : r + _ROWS] = xd[r : r + _ROWS] @ xd.T
    # The sparse features' entries grouped by feature; a pass over _ROWS
    # groups enumerates at most _ROWS * _DENSE**2 pairs.
    grouped = rows[~on][np.argsort(x.cols[~on], kind="stable")]
    sizes = per_feature[(per_feature > 0) & ~dense]
    starts = np.cumsum(sizes) - sizes
    for g in range(0, len(sizes), _ROWS):
        pairs = sizes[g : g + _ROWS] ** 2
        k = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        first = np.repeat(starts[g : g + _ROWS], pairs)
        size = np.repeat(sizes[g : g + _ROWS], pairs)
        flat = grouped[first + k // size] * n + grouped[first + k % size]
        np.add.at(gram.reshape(-1), flat, np.ones(len(flat), gram.dtype))
    return gram


def _scores(gram: np.ndarray, dual: np.ndarray) -> np.ndarray:
    """Exact int64 ``gram.T @ dual`` for a training x queries Gram block:
    queries x classes.  Each class multiplies only its nonzero
    coefficients by their Gram rows, since few instances are mistaken."""
    out = np.zeros((gram.shape[1], dual.shape[1]), dtype=np.int64)
    for c, coefficients in enumerate(dual.T):
        on = np.flatnonzero(coefficients)
        out[:, c] = coefficients[on] @ gram[on]
    return out


def train(
    instances: Sequence[InflectionInstance],
    params: Hyperparams,
    rng: np.random.Generator,
    rows: FeatureRows | None = None,
    script_cache: Sequence[EditScript] | None = None,
    gram: np.ndarray | None = None,
) -> InflectionModel:
    """Averaged-perceptron training over edit-script classes, in dual form.

    A mistake at step t on instance j adds +-1 to the weights ``w`` and +-t
    to ``u`` on j's features; after T steps the summed weights ``T*w - u``
    are T times the averaged ones (Collins 2002).  The scores ``S = X @ w``
    (classes x instances) then change by j's row of ``G = X @ X.T``
    (``gram``): ``S[gold] += G[j]``, ``S[pred] -= G[j]`` (Freund & Schapire
    1999).  Each epoch takes the argmax over blocks of its shuffled
    instances, applies the first mistake and resumes after it, so each step
    sees the scores a step-by-step learner would.  The integers are exact,
    so ties still go to the lowest class index.  Finally ``T*w - u =
    X.T @ D``, where ``D[j]`` sums ``(T - t) * (e_gold - e_pred)`` over j's
    mistakes: the model keeps ``D`` as ``dual`` and never builds the
    weights.  The rng only shuffles instance order.  A single-class
    training set yields a model that always predicts that class.
    """
    if not instances:
        raise ValueError("empty training set")
    scripts = script_cache or [derive_edit_script(i.lemma, i.form) for i in instances]
    classes = tuple(sorted(set(scripts)))
    class_index = {s: i for i, s in enumerate(classes)}
    labels = np.array([class_index[s] for s in scripts])
    if rows is None:
        feats = [featurize(i.lemma, i.feature_bundle, params.ngram_order) for i in instances]
        rows = _count_matrix(feats, {})
    n = len(instances)
    mistakes: list[tuple[int, int, int, int]] = []  # (instance, gold, predicted, step)
    if len(classes) > 1:
        gram = _gram(rows) if gram is None else gram
        scores = np.zeros((len(classes), n), dtype=np.int64)
        for epoch in range(params.epochs):
            order = rng.permutation(n)
            gold = labels[order]
            pos = 0
            while pos < n:
                predicted = scores[:, order[pos : pos + _BLOCK]].argmax(axis=0)
                wrong = predicted != gold[pos : pos + _BLOCK]
                k = int(wrong.argmax())
                if not wrong[k]:
                    pos += len(predicted)
                    continue
                j, g, c = int(order[pos + k]), int(gold[pos + k]), int(predicted[k])
                scores[g] += gram[j]
                scores[c] -= gram[j]
                pos += k + 1
                mistakes.append((j, g, c, epoch * n + pos))
    j, g, c, t = np.array(mistakes, dtype=np.int64).reshape(-1, 4).T
    left = params.epochs * n - t
    dual = np.zeros((n, len(classes)), dtype=np.int64)
    np.add.at(dual, (np.r_[j, j], np.r_[g, c]), np.r_[left, -left])
    return InflectionModel(classes, rows, dual, params)


def predict_batch(model: InflectionModel, lemmas: Sequence[str], gram: np.ndarray) -> list[str]:
    """Apply to each lemma, given the Gram block of ``model.rows`` against
    the lemmas' features (training instances x lemmas), the best-scoring
    edit script whose drops fit it.  If none fits, the top one is applied
    anyway, its drops clamped.
    """
    scores = _scores(gram, model.dual)
    drops = np.array([s.prefix_drop + s.suffix_drop for s in model.scripts])
    fits = drops <= np.array([len(lemma) for lemma in lemmas])[:, None]
    best = np.where(fits, scores, np.iinfo(np.int64).min).argmax(axis=1)
    top = scores.argmax(axis=1)
    return [
        model.scripts[b if ok else t].apply(lemma)
        for lemma, b, t, ok in zip(lemmas, best.tolist(), top.tolist(), fits.any(axis=1))
    ]


def predict(model: InflectionModel, lemma: str, feature_bundle: str) -> str:
    """``predict_batch`` for one lemma and feature bundle; features unseen in
    training count zero.  The Gram row sums, per training row, the query's
    counts of that row's features; every row holds ``bias``, so none is empty."""
    rows = model.rows
    feats = featurize(lemma, feature_bundle, model.params.ngram_order)
    counts = np.bincount([rows.ids[f] for f in feats if f in rows.ids], minlength=len(rows.ids))
    gram = np.add.reduceat(counts[rows.cols], rows.indptr[:-1])
    return predict_batch(model, [lemma], gram[:, None])[0]


@dataclass(frozen=True)
class IASearchConfig:
    """``n_draws`` random (n-gram order, epochs) draws, each scored by cross validation."""

    n_draws: int = 20
    n_folds: ClassVar[int] = 3
    ngram_range: ClassVar[tuple[int, int]] = (1, 4)
    epoch_range: ClassVar[tuple[int, int]] = (5, 30)

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError("ia_draws must be >= 1")


@dataclass(frozen=True)
class IAResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    params: Hyperparams
    n_draws: int

    @property
    def measure_value(self) -> float:
        return -self.mean_accuracy


def cross_validate(
    instances: Sequence[InflectionInstance], config: IASearchConfig, rng: np.random.Generator
) -> IAResult:
    """Best mean exact-match accuracy over random hyperparameter draws.

    Instances are shuffled once and split into folds round-robin; every
    draw is evaluated on the same folds with its own derived generator, so
    draws are run grouped by n-gram order and fold without changing the
    result.  Each order featurizes and interns the instances once, and each
    fold trains on row slices of that one matrix and of its Gram matrix and
    scores on the Gram block of its training against its test rows.  Ties
    between draws break toward the earlier draw.
    """
    if len(instances) < config.n_folds:
        raise ValueError(f"need at least {config.n_folds} instances, got {len(instances)}")
    root = int(rng.integers(0, 2**63))
    order = np.random.default_rng([root, 1]).permutation(len(instances))
    folds = [order[f :: config.n_folds] for f in range(config.n_folds)]
    scripts = [derive_edit_script(i.lemma, i.form) for i in instances]
    splits = []  # per fold: train and test rows, train instances and scripts, test instances
    for f, test_idx in enumerate(folds):
        train_idx = np.concatenate(folds[:f] + folds[f + 1 :])
        kept = train_idx.tolist()
        train_set, train_scripts = [instances[i] for i in kept], [scripts[i] for i in kept]
        test_set = [instances[i] for i in test_idx.tolist()]
        splits.append((train_idx, test_idx, train_set, train_scripts, test_set))
    ranges = (config.ngram_range, config.epoch_range)
    draws = [
        Hyperparams(*(int(g.integers(lo, hi + 1)) for lo, hi in ranges))
        for g in (np.random.default_rng([root, 2, d]) for d in range(config.n_draws))
    ]
    fold_acc = [[0.0] * config.n_folds for _ in draws]
    for k in sorted({p.ngram_order for p in draws}):
        x = _count_matrix([featurize(i.lemma, i.feature_bundle, k) for i in instances], {})
        gram = _gram(x)
        for f, (train_idx, test_idx, train_set, train_scripts, test_set) in enumerate(splits):
            train_rows, train_gram = x.take(train_idx), gram[np.ix_(train_idx, train_idx)]
            test_gram = gram[np.ix_(train_idx, test_idx)]
            for draw in (d for d, p in enumerate(draws) if p.ngram_order == k):
                model = train(
                    train_set,
                    draws[draw],
                    np.random.default_rng([root, 3, draw, f]),
                    rows=train_rows,
                    script_cache=train_scripts,
                    gram=train_gram,
                )
                predicted = predict_batch(model, [i.lemma for i in test_set], test_gram)
                correct = sum(p == i.form for p, i in zip(predicted, test_set))
                fold_acc[draw][f] = correct / len(test_set)
        del gram, train_gram, test_gram, model  # before the next order's Gram matrix
    means = [float(np.mean(acc)) for acc in fold_acc]
    best = max(range(config.n_draws), key=lambda d: (means[d], -d))
    return IAResult(tuple(fold_acc[best]), means[best], draws[best], config.n_draws)
