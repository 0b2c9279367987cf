"""Inflection accuracy: predict inflected forms from lemma + features.

The learner maps each (lemma, form) training pair to an edit script
(prefix/suffix operations around the longest common substring), then
trains a multiclass averaged perceptron over script classes with sparse
character and feature-bundle indicators, in dual form from training to
prediction: a mistake patches every training score, and a query scores
its Gram row against the training instances times their coefficients,
so no weight matrix is built.  Nor is the feature matrix X: for n-grams
up to order K, ``G = X @ X.T`` has the closed form (see ``_gram``)

    G[i, j] = 1 + min(K, lcp) + min(K, lcs) + P * (1 + [same last char])

The reported measure is the negative best mean exact-match accuracy
under 3-fold cross validation over random hyperparameter draws.
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


def featurize(lemma: str, feature_bundle: str, ngram_order: int) -> list[tuple[str, str]]:
    """Sparse binary features as (kind, text) pairs, so no two kinds share
    one: a bias, edge-anchored lemma character n-grams of orders 1..K, each
    Key=Value pair, and each pair conjoined with the final lemma character."""
    feats = [("bias", "")]
    for n in range(1, min(ngram_order, len(lemma)) + 1):
        feats += [("^", lemma[:n]), ("$", lemma[-n:])]
    for pair in feature_bundle.split("|"):
        feats += [("pair", pair), ("end", f"{pair}&end={lemma[-1]}")]
    return feats


@dataclass(frozen=True)
class Hyperparams:
    ngram_order: int
    epochs: int


@dataclass
class InflectionModel:
    """Edit-script classes and the perceptron in dual form (see ``train``):
    a query scores its Gram row against the training ``rows`` times ``dual``."""

    scripts: tuple[EditScript, ...]
    rows: list[tuple[str, str]]  # (lemma, feature bundle) per training instance
    dual: np.ndarray  # int64, training instances x classes
    params: Hyperparams


# Instances scored per argmax; a mistake ends a block early.  Fastest size.
_BLOCK = 32


def _distinct(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct strings and each value's index among them."""
    return np.unique(np.array(values, dtype=object), return_inverse=True)


def _common_prefixes(a: Sequence[str], b: Sequence[str], order: int) -> np.ndarray:
    """``min(order, length of the common prefix)`` of each string in ``a``
    with each in ``b``, as uint8, from their first ``order`` code points;
    capping at both lengths stops zero padding matching a zero code point."""
    pa, pb = (np.array(s, dtype=f"<U{order}").view(np.uint32).reshape(len(s), order) for s in (a, b))
    same = np.ones((len(a), len(b)), dtype=bool)
    common = np.zeros((len(a), len(b)), dtype=np.uint8)
    for n in range(order):
        same &= pa[:, n, None] == pb[:, n]
        common += same
    lengths = [np.minimum([len(x) for x in s], order).astype(np.uint8) for s in (a, b)]
    return np.minimum(common, np.minimum.outer(*lengths))


def _gram(a: Sequence[tuple[str, str]], b: Sequence[tuple[str, str]], order: int) -> np.ndarray:
    """Exact ``X_a @ X_b.T`` for the ``featurize`` counts X of the (lemma,
    bundle) pairs ``a`` and ``b`` at n-gram order K, without building X, in
    the smallest unsigned type holding its largest entry.  Entry (i, j) is

        1 + min(K, lcp) + min(K, lcs) + P * (1 + [same last char])

    from the bias, the n-grams of the lemmas' common prefix and suffix (of
    lengths lcp and lcs), and the Key=Value pairs, alone and conjoined with
    the last character: P sums each pair's count in one bundle times its
    count in the other.  Terms are computed per distinct lemma or bundle."""
    (la, ia), (lb, ib) = (_distinct([lemma for lemma, _ in s]) for s in (a, b))
    (ba, ja), (bb, jb) = (_distinct([bundle for _, bundle in s]) for s in (a, b))
    lcs = _common_prefixes([x[::-1] for x in la], [x[::-1] for x in lb], order)
    lemma_term = 1 + _common_prefixes(la, lb, order) + lcs
    pairs, ids = _distinct([p for bundle in (*ba, *bb) for p in bundle.split("|")])
    owners = np.repeat(np.arange(len(ba) + len(bb)), [x.count("|") + 1 for x in (*ba, *bb)])
    counts = np.zeros((len(ba) + len(bb), len(pairs)), dtype=np.int64)
    np.add.at(counts, (owners, ids), 1)
    shared = counts[: len(ba)] @ counts[len(ba) :].T
    dtype = np.min_scalar_type(int(lemma_term.max(initial=0)) + 2 * int(shared.max(initial=0)))
    gram = 1 + (lcs > 0).astype(dtype).take(ia, 0).take(ib, 1)  # lcs > 0: same last char
    gram *= shared.astype(dtype).take(ja, 0).take(jb, 1)
    gram += lemma_term.astype(dtype).take(ia, 0).take(ib, 1)
    return gram.astype(np.min_scalar_type(int(gram.max(initial=0))), copy=False)


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
    *,
    scripts: Sequence[EditScript] | None = None,
    gram: np.ndarray | None = None,
) -> InflectionModel:
    """Averaged-perceptron training over edit-script classes, in dual form.

    A mistake at step t on instance j adds +-1 to the weights ``w`` and +-t
    to ``u`` on j's features; after T steps the summed weights ``T*w - u``
    are T times the averaged ones (Collins 2002).  The scores ``S = X @ w``
    (classes x instances) then change by j's row of ``G = X @ X.T``
    (``gram``, from ``_gram`` unless given): ``S[gold] += G[j]``,
    ``S[pred] -= G[j]`` (Freund & Schapire 1999).  Each epoch takes the
    argmax over blocks of its shuffled instances, applies the first mistake
    and resumes after it, so each step sees the scores a step-by-step
    learner would.  The integers are exact, so ties still go to the lowest
    class index.  Finally ``T*w - u = X.T @ D``, where ``D[j]`` sums
    ``(T - t) * (e_gold - e_pred)`` over j's mistakes: the model keeps ``D``
    as ``dual`` and never builds the weights.  ``scripts`` may give the
    instances' edit scripts.  The rng only shuffles instance order.  A
    single-class training set yields a model that always predicts that class.
    """
    if not instances:
        raise ValueError("empty training set")
    scripts = scripts or [derive_edit_script(i.lemma, i.form) for i in instances]
    classes = tuple(sorted(set(scripts)))
    class_index = {s: i for i, s in enumerate(classes)}
    labels = np.array([class_index[s] for s in scripts])
    rows = [(i.lemma, i.feature_bundle) for i in instances]
    n = len(instances)
    mistakes: list[tuple[int, int, int, int]] = []  # (instance, gold, predicted, step)
    if len(classes) > 1:
        gram = _gram(rows, rows, params.ngram_order) if gram is None else gram
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
    the lemmas' instances (training instances x lemmas), the best-scoring
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
    """``predict_batch`` for one lemma and feature bundle."""
    gram = _gram(model.rows, [(lemma, feature_bundle)], model.params.ngram_order)
    return predict_batch(model, [lemma], gram)[0]


@dataclass(frozen=True)
class IASearchConfig:
    """``n_draws`` random (n-gram order, epochs) draws, each scored by cross validation."""

    n_draws: int = 20
    n_folds: ClassVar[int] = 3
    ngram_range: ClassVar[tuple[int, int]] = (1, 4)
    epoch_range: ClassVar[tuple[int, int]] = (5, 30)


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
    result.  Each (order, fold) computes its training and test Gram blocks
    once for all its draws.  Ties between draws break toward the earlier draw.
    """
    if len(instances) < config.n_folds:
        raise ValueError(f"need at least {config.n_folds} instances, got {len(instances)}")
    root = int(rng.integers(0, 2**63))
    order = np.random.default_rng([root, 1]).permutation(len(instances))
    folds = [order[f :: config.n_folds] for f in range(config.n_folds)]
    scripts = [derive_edit_script(i.lemma, i.form) for i in instances]
    rows = [(i.lemma, i.feature_bundle) for i in instances]
    ranges = (config.ngram_range, config.epoch_range)
    draws = [
        Hyperparams(*(int(g.integers(lo, hi + 1)) for lo, hi in ranges))
        for g in (np.random.default_rng([root, 2, d]) for d in range(config.n_draws))
    ]
    fold_acc = [[0.0] * config.n_folds for _ in draws]
    for k in sorted({p.ngram_order for p in draws}):
        for f, test_idx in enumerate(folds):
            kept, test = np.concatenate(folds[:f] + folds[f + 1 :]).tolist(), test_idx.tolist()
            train_set, train_scripts = [instances[i] for i in kept], [scripts[i] for i in kept]
            train_rows, test_set = [rows[i] for i in kept], [instances[i] for i in test]
            train_gram = _gram(train_rows, train_rows, k)
            test_gram = _gram(train_rows, [rows[i] for i in test], k)
            for draw in (d for d, p in enumerate(draws) if p.ngram_order == k):
                rng_draw = np.random.default_rng([root, 3, draw, f])
                model = train(train_set, draws[draw], rng_draw, scripts=train_scripts, gram=train_gram)
                predicted = predict_batch(model, [i.lemma for i in test_set], test_gram)
                correct = sum(p == i.form for p, i in zip(predicted, test_set))
                fold_acc[draw][f] = correct / len(test_set)
    means = [float(np.mean(acc)) for acc in fold_acc]
    best = max(range(config.n_draws), key=lambda d: (means[d], -d))
    return IAResult(tuple(fold_acc[best]), means[best], draws[best], config.n_draws)
