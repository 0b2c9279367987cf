"""Inflection accuracy: predict inflected forms from lemma + features.

The learner maps each (lemma, form) training pair to an edit script
(prefix/suffix operations around the longest common substring), then
trains a multiclass averaged perceptron over script classes with sparse
character and feature-bundle indicators.  The perceptron runs in dual
form, patching all training scores once per mistake rather than scoring
every step.  The reported measure is the negative best mean exact-match
accuracy under 3-fold cross validation over random hyperparameter draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterable, Sequence

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
    has_form = np.array([bool(f) for f in tb.forms])
    keep = np.flatnonzero((lemma != 0) & (bundle != 0) & has_form[form])
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

    def fits(self, lemma: str) -> bool:
        return self.prefix_drop + self.suffix_drop <= len(lemma)

    def apply(self, lemma: str) -> str:
        stem = lemma[self.prefix_drop : len(lemma) - self.suffix_drop]
        return self.prefix_add + stem + self.suffix_add

    def apply_clamped(self, lemma: str) -> str:
        """Total fallback application when the drops do not fit."""
        pd = min(self.prefix_drop, len(lemma))
        sd = min(self.suffix_drop, len(lemma) - pd)
        return self.prefix_add + lemma[pd : len(lemma) - sd] + self.suffix_add


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
    """Edit-script classes and their summed perceptron weights.

    ``weights[feature_ids[f], c]`` is the weight of feature ``f`` for class
    ``c`` summed over every training step, which is the averaged weight
    times the step count and so ranks the classes as the average does.
    """

    scripts: tuple[EditScript, ...]
    feature_ids: dict[str, int]
    weights: np.ndarray  # int64, features x classes
    params: Hyperparams


# Instances scored per argmax; a mistake ends a block early.  Fastest size.
_BLOCK = 32


def _count_matrix(feats: Sequence[Sequence[str]], ids: dict[str, int]):
    """Sparse instance-by-feature counts; a feature new to ``ids`` gets the next id."""
    import scipy.sparse

    cols = np.fromiter((ids.setdefault(f, len(ids)) for x in feats for f in x), dtype=np.int64)
    indptr = np.cumsum([0] + [len(x) for x in feats])
    x = scipy.sparse.csr_array((np.ones_like(cols), cols, indptr), shape=(len(feats), len(ids)))
    x.sum_duplicates()
    return x


def _gram(x) -> np.ndarray:
    """Dense ``x @ x.T`` in the smallest unsigned type holding its largest
    (diagonal) entry, multiplied in row blocks to keep the products small."""
    top = x.multiply(x).sum(axis=1).max(initial=0)
    gram = np.empty((x.shape[0],) * 2, dtype=np.min_scalar_type(top))
    for r in range(0, x.shape[0], 128):
        gram[r : r + 128] = (x[r : r + 128] @ x.T).toarray()
    return gram


def train(
    instances: Sequence[InflectionInstance],
    params: Hyperparams,
    rng: np.random.Generator,
    feature_cache: Sequence[Sequence[str]] | None = None,
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
    mistakes.  The rng only shuffles instance order.  A single-class
    training set yields a model that always predicts that class.
    """
    if not instances:
        raise ValueError("empty training set")
    scripts = script_cache or [derive_edit_script(i.lemma, i.form) for i in instances]
    classes = tuple(sorted(set(scripts)))
    class_index = {s: i for i, s in enumerate(classes)}
    labels = np.array([class_index[s] for s in scripts])
    feats = feature_cache or [
        featurize(i.lemma, i.feature_bundle, params.ngram_order) for i in instances
    ]
    feature_ids: dict[str, int] = {}
    x = _count_matrix(feats, feature_ids)
    n = len(instances)
    mistakes: list[tuple[int, int, int, int]] = []  # (instance, gold, predicted, step)
    if len(classes) > 1:
        gram = _gram(x) if gram is None else gram
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
    dual = np.zeros((n, len(classes)), dtype=np.int64)
    np.add.at(dual, (j, g), params.epochs * n - t)
    np.add.at(dual, (j, c), t - params.epochs * n)
    return InflectionModel(classes, feature_ids, x.T @ dual, params)


def predict_batch(
    model: InflectionModel, lemmas: Sequence[str], feats: Sequence[Sequence[str]]
) -> list[str]:
    """Apply to each lemma, given its features, the best-scoring edit script
    that fits it; features unseen in training count zero.  If no script
    fits, the top one is applied with clamped drops so prediction is total.
    """
    x = _count_matrix(feats, dict(model.feature_ids))[:, : len(model.feature_ids)]
    scores = x @ model.weights
    drops = np.array([s.prefix_drop + s.suffix_drop for s in model.scripts])
    fits = drops <= np.array([len(lemma) for lemma in lemmas])[:, None]
    best = np.where(fits, scores, np.iinfo(np.int64).min).argmax(axis=1)
    top = scores.argmax(axis=1)
    return [
        model.scripts[b].apply(lemma) if ok else model.scripts[t].apply_clamped(lemma)
        for lemma, b, t, ok in zip(lemmas, best.tolist(), top.tolist(), fits.any(axis=1))
    ]


def predict(model: InflectionModel, lemma: str, feature_bundle: str) -> str:
    """``predict_batch`` for one lemma and feature bundle."""
    feats = featurize(lemma, feature_bundle, model.params.ngram_order)
    return predict_batch(model, [lemma], [feats])[0]


@dataclass(frozen=True)
class IASearchConfig:
    n_folds: int = 3
    n_draws: int = 20
    ngram_range: tuple[int, int] = (1, 4)
    epoch_range: tuple[int, int] = (5, 30)


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
    draws are run grouped by n-gram order, sharing its Gram matrix, without
    changing the result.  Ties between draws break toward the earlier draw.
    """
    if len(instances) < config.n_folds:
        raise ValueError(f"need at least {config.n_folds} instances, got {len(instances)}")
    root = int(rng.integers(0, 2**63))
    order = np.random.default_rng([root, 1]).permutation(len(instances))
    folds = [order[f :: config.n_folds].tolist() for f in range(config.n_folds)]
    scripts = [derive_edit_script(i.lemma, i.form) for i in instances]
    lemmas = [i.lemma for i in instances]
    ranges = (config.ngram_range, config.epoch_range)
    draws = [
        Hyperparams(*(int(g.integers(lo, hi + 1)) for lo, hi in ranges))
        for g in (np.random.default_rng([root, 2, d]) for d in range(config.n_draws))
    ]
    fold_acc: dict[int, list[float]] = {}
    for k in sorted({p.ngram_order for p in draws}):
        feats = [featurize(i.lemma, i.feature_bundle, k) for i in instances]
        gram = _gram(_count_matrix(feats, {}))
        for draw in (d for d, p in enumerate(draws) if p.ngram_order == k):
            fold_acc[draw] = []
            for f in range(config.n_folds):
                test_idx = folds[f]
                train_idx = [i for g in range(config.n_folds) if g != f for i in folds[g]]
                model = train(
                    [instances[i] for i in train_idx],
                    draws[draw],
                    np.random.default_rng([root, 3, draw, f]),
                    feature_cache=[feats[i] for i in train_idx],
                    script_cache=[scripts[i] for i in train_idx],
                    gram=gram.take(train_idx, axis=0).take(train_idx, axis=1),
                )
                test_feats = [feats[i] for i in test_idx]
                predicted = predict_batch(model, [lemmas[i] for i in test_idx], test_feats)
                correct = sum(p == instances[i].form for p, i in zip(predicted, test_idx))
                fold_acc[draw].append(correct / len(test_idx))
    means = [float(np.mean(fold_acc[d])) for d in range(config.n_draws)]
    best = max(range(config.n_draws), key=lambda d: (means[d], -d))
    return IAResult(tuple(fold_acc[best]), means[best], draws[best], config.n_draws)
