"""Inflection accuracy: predict inflected forms from lemma + features.

The learner maps each (lemma, form) training pair to an edit script
(prefix/suffix operations around the longest common substring), then
trains a multiclass averaged perceptron over script classes with sparse
character and feature-bundle indicators.  The reported measure is the
negative best mean exact-match accuracy under 3-fold cross validation,
searched over random hyperparameter draws.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _longest_common_substring(a: str, b: str) -> tuple[int, int, int]:
    """Return (start_a, start_b, length) of the longest common substring.

    Ties break on the leftmost start in ``a``, then the leftmost in ``b``.
    """
    best = (0, 0, 0)
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            if ai == b[j - 1]:
                run = prev[j - 1] + 1
                cur[j] = run
                if run > best[2]:
                    best = (i - run, j - run, run)
        prev = cur
    return best


def derive_edit_script(lemma: str, form: str) -> EditScript:
    """Align lemma and form on their longest common substring.

    With no common substring the script degenerates to a full replacement.
    Applying the result to the lemma reproduces the form exactly.
    """
    if not lemma or not form:
        raise ValueError("lemma and form must be nonempty")
    start_l, start_f, length = _longest_common_substring(lemma, form)
    if length == 0:
        return EditScript(len(lemma), form, 0, "")
    return EditScript(
        prefix_drop=start_l,
        prefix_add=form[:start_f],
        suffix_drop=len(lemma) - (start_l + length),
        suffix_add=form[start_f + length :],
    )


def featurize(lemma: str, feature_bundle: str, ngram_order: int) -> list[str]:
    """Sparse binary features for one instance.

    Edge-anchored lemma character n-grams of orders 1..K, one indicator
    per Key=Value pair, and each pair conjoined with the final lemma
    character.
    """
    feats = ["bias"]
    top = min(ngram_order, len(lemma))
    for n in range(1, top + 1):
        feats.append("^" + lemma[:n])
        feats.append(lemma[-n:] + "$")
    last = lemma[-1]
    for pair in feature_bundle.split("|"):
        feats.append(pair)
        feats.append(f"{pair}&end={last}")
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

    def scores(self, features: Sequence[str]) -> np.ndarray:
        """Per-class score; features unseen in training count zero."""
        ids = self.feature_ids
        return self.weights[[ids[f] for f in features if f in ids]].sum(axis=0)


def train(
    instances: Sequence[InflectionInstance],
    params: Hyperparams,
    rng: np.random.Generator,
    feature_cache: Sequence[Sequence[str]] | None = None,
    script_cache: Sequence[EditScript] | None = None,
) -> InflectionModel:
    """Averaged-perceptron training over edit-script classes.

    A mistake at step t adds +-1 to the current weights ``w`` and +-t to
    ``u`` on the instance's feature rows; after T steps the summed weights
    are ``T*w - u``, T times the averaged weights (Collins 2002; Daume III,
    A Course in Machine Learning, 4.6).  Integer weights make ties exact:
    the lowest class index wins.

    The rng only shuffles instance order, so identical (instances, params,
    seed) give identical weights.  A single-class training set yields a
    degenerate model that always predicts that class.
    """
    if not instances:
        raise ValueError("empty training set")
    scripts = script_cache or [derive_edit_script(i.lemma, i.form) for i in instances]
    classes = tuple(sorted(set(scripts)))
    class_index = {s: i for i, s in enumerate(classes)}
    labels = [class_index[s] for s in scripts]
    feats = feature_cache or [
        featurize(i.lemma, i.feature_bundle, params.ngram_order) for i in instances
    ]
    feature_ids: dict[str, int] = {}
    rows = [np.array([feature_ids.setdefault(f, len(feature_ids)) for f in x]) for x in feats]
    w = np.zeros((len(feature_ids), len(classes)), dtype=np.int64)
    u = np.zeros_like(w)
    t = 0
    if len(classes) > 1:
        for _ in range(params.epochs):
            for idx in rng.permutation(len(instances)):
                t += 1
                x, gold = rows[idx], labels[idx]
                predicted = int(np.argmax(w[x].sum(axis=0)))
                if predicted != gold:
                    np.add.at(w, (x, gold), 1)
                    np.add.at(w, (x, predicted), -1)
                    np.add.at(u, (x, gold), t)
                    np.add.at(u, (x, predicted), -t)
    return InflectionModel(classes, feature_ids, t * w - u, params)


def predict(model: InflectionModel, lemma: str, feature_bundle: str) -> str:
    """Apply the best-scoring edit script that fits the lemma.

    Scripts whose drops exceed the lemma length are skipped down the
    ranking; if nothing fits, the top script is applied with clamped drops
    so prediction is total.
    """
    features = featurize(lemma, feature_bundle, model.params.ngram_order)
    scores = model.scores(features)
    order = np.argsort(-scores, kind="stable")
    for c in order:
        script = model.scripts[int(c)]
        if script.fits(lemma):
            return script.apply(lemma)
    return model.scripts[int(order[0])].apply_clamped(lemma)


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


def _draw_params(prng: np.random.Generator, config: IASearchConfig) -> Hyperparams:
    return Hyperparams(
        ngram_order=int(prng.integers(config.ngram_range[0], config.ngram_range[1] + 1)),
        epochs=int(prng.integers(config.epoch_range[0], config.epoch_range[1] + 1)),
    )


def cross_validate(
    instances: Sequence[InflectionInstance],
    config: IASearchConfig,
    rng: np.random.Generator,
) -> IAResult:
    """Best mean exact-match accuracy over random hyperparameter draws.

    Instances are shuffled once and split into folds round-robin; every
    draw is evaluated on the same folds with its own derived generator, so
    draws may be reordered or parallelised without changing the result.
    Ties between draws break toward the earlier draw index.
    """
    if len(instances) < config.n_folds:
        raise ValueError(f"need at least {config.n_folds} instances, got {len(instances)}")
    root = int(rng.integers(0, 2**63))
    order = np.random.default_rng([root, 1]).permutation(len(instances))
    folds: list[list[int]] = [[] for _ in range(config.n_folds)]
    for pos, idx in enumerate(order):
        folds[pos % config.n_folds].append(int(idx))

    scripts = [derive_edit_script(i.lemma, i.form) for i in instances]
    features_by_k: dict[int, list[list[str]]] = {}

    def features_for(k: int) -> list[list[str]]:
        if k not in features_by_k:
            features_by_k[k] = [
                featurize(i.lemma, i.feature_bundle, k) for i in instances
            ]
        return features_by_k[k]

    best: IAResult | None = None
    for draw in range(config.n_draws):
        params = _draw_params(np.random.default_rng([root, 2, draw]), config)
        feats = features_for(params.ngram_order)
        fold_acc: list[float] = []
        for f in range(config.n_folds):
            test_idx = folds[f]
            train_idx = [i for g in range(config.n_folds) if g != f for i in folds[g]]
            model = train(
                [instances[i] for i in train_idx],
                params,
                np.random.default_rng([root, 3, draw, f]),
                feature_cache=[feats[i] for i in train_idx],
                script_cache=[scripts[i] for i in train_idx],
            )
            correct = sum(
                1
                for i in test_idx
                if predict(model, instances[i].lemma, instances[i].feature_bundle)
                == instances[i].form
            )
            fold_acc.append(correct / len(test_idx))
        mean = float(np.mean(fold_acc))
        if best is None or mean > best.mean_accuracy:
            best = IAResult(tuple(fold_acc), mean, params, config.n_draws)
    assert best is not None
    return best
