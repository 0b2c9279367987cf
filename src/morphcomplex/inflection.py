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
under 3-fold cross validation over random hyperparameter draws.  Cross
validation builds one sorted table of the edit-script classes of all
instances: ``train`` sees each instance's class only as an integer, and
``predict`` is given the script of each class.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Sequence

import numpy as np

from .sampling import Sample


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
    columns = (tb.lemmas[lemma[first]], tb.bundles[bundle[first]], tb.forms[form[first]])
    return [InflectionInstance(*cells) for cells in zip(*columns)]


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


# Instances scored per argmax; a mistake ends a block early.  Fastest size.
_BLOCK = 32


def _distinct(values: Sequence[object]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values and each value's index among them."""
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
    labels: np.ndarray, params: Hyperparams, rng: np.random.Generator, *, gram: np.ndarray
) -> np.ndarray:
    """Averaged-perceptron training in dual form: the int64 matrix ``D``
    (training instances x classes) with ``X.T @ D`` the summed weights.

    ``labels`` gives each training instance's class, 0 to ``labels.max()``.
    A mistake at step t on instance j adds +-1 to the weights ``w`` and +-t
    to ``u`` on j's features; after T steps the summed weights ``T*w - u``
    are T times the averaged ones (Collins 2002).  The scores ``S = X @ w``
    (classes x instances) then change by j's row of the instances' Gram
    matrix ``G = X @ X.T``, which the caller gives as ``gram`` (see
    ``_gram``): ``S[gold] += G[j]``, ``S[pred] -= G[j]`` (Freund &
    Schapire 1999).  Each epoch takes the argmax over blocks of its
    shuffled instances, applies the first mistake and resumes after it,
    so each step sees the scores a step-by-step learner would.  The
    integers are exact, so ties still go to the lowest class index.
    ``T*w - u = X.T @ D``, where ``D[j]`` sums ``(T - t) * (e_gold -
    e_pred)`` over j's mistakes, each added to ``D`` as it happens; the
    weights are never built.  The rng only shuffles instance order.  A
    single class makes no mistake, so ``D`` is zero and every query gets
    that class.
    """
    if not len(labels):
        raise ValueError("empty training set")
    n, n_classes = len(labels), int(labels.max()) + 1
    dual = np.zeros((n, n_classes), dtype=np.int64)
    scores = np.zeros((n_classes, n), dtype=np.int64)
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
            left = (params.epochs - epoch) * n - pos  # T - t
            dual[j, g] += left
            dual[j, c] -= left
    return dual


def predict(
    scripts: Sequence[EditScript], dual: np.ndarray, lemmas: Sequence[str], gram: np.ndarray
) -> list[str]:
    """Apply to each lemma the best-scoring edit script whose drops fit it,
    scoring ``dual`` (``train``'s, with ``scripts[c]`` class c's script)
    against the Gram block of the training instances against the lemmas'
    instances (training instances x lemmas).  If none fits, the top one is
    applied anyway, its drops clamped.
    """
    scores = _scores(gram, dual)
    drops = np.array([s.prefix_drop + s.suffix_drop for s in scripts])
    fits = drops <= np.array([len(lemma) for lemma in lemmas])[:, None]
    best = np.where(fits, scores, np.iinfo(np.int64).min).argmax(axis=1)
    chosen = np.where(fits.any(axis=1), best, scores.argmax(axis=1))
    return [scripts[c].apply(lemma) for lemma, c in zip(lemmas, chosen.tolist())]


class IASearchConfig:
    """Folds and ranges of ``cross_validate``'s (n-gram order, epochs) draws."""

    n_folds = 3
    ngram_range = (1, 4)
    epoch_range = (5, 30)


@dataclass(frozen=True)
class IAResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    params: Hyperparams


def cross_validate(
    instances: Sequence[InflectionInstance], n_draws: int, rng: np.random.Generator
) -> IAResult:
    """Best mean exact-match accuracy over ``n_draws`` random hyperparameter draws.

    Instances are shuffled once and split into folds round-robin; every
    draw is evaluated on the same folds with its own derived generator, so
    draws are run grouped by n-gram order and fold without changing the
    result.  From ``root``, the first integer ``rng`` draws, the fold order
    comes from ``default_rng([root, 1])``, draw d's hyperparameters from
    ``[root, 2, d]`` and its training order on fold f from ``[root, 3, d, f]``;
    a fold trains on the other folds in fold order.  Each (order, fold)
    computes one Gram block of its training rows against training and test
    rows for all its draws.  Ties go to the earlier draw.
    """
    n_folds = IASearchConfig.n_folds
    if len(instances) < n_folds:
        raise ValueError(f"need at least {n_folds} instances, got {len(instances)}")
    root = int(rng.integers(0, 2**63))
    order = np.random.default_rng([root, 1]).permutation(len(instances))
    folds = [order[f::n_folds] for f in range(n_folds)]
    scripts = [derive_edit_script(i.lemma, i.form) for i in instances]
    classes, script_ids = _distinct(scripts)
    rows = [(i.lemma, i.feature_bundle) for i in instances]
    lemmas = np.array([i.lemma for i in instances], dtype=object)
    forms = np.array([i.form for i in instances], dtype=object)
    ranges = (IASearchConfig.ngram_range, IASearchConfig.epoch_range)
    draws = [
        Hyperparams(*(int(g.integers(lo, hi + 1)) for lo, hi in ranges))
        for g in (np.random.default_rng([root, 2, d]) for d in range(n_draws))
    ]
    fold_acc = np.zeros((n_draws, n_folds))
    for k in sorted({p.ngram_order for p in draws}):
        for f, test in enumerate(folds):
            kept = np.concatenate(folds[:f] + folds[f + 1 :])
            present, labels = np.unique(script_ids[kept], return_inverse=True)
            gram = _gram([rows[i] for i in kept], [rows[i] for i in np.r_[kept, test]], k)
            train_gram, test_gram = gram[:, : len(kept)], gram[:, len(kept) :]
            for draw in (d for d, p in enumerate(draws) if p.ngram_order == k):
                rng_draw = np.random.default_rng([root, 3, draw, f])
                dual = train(labels, draws[draw], rng_draw, gram=train_gram)
                predicted = predict(classes[present], dual, lemmas[test], test_gram)
                fold_acc[draw, f] = np.count_nonzero(forms[test] == predicted) / len(test)
    best = int(fold_acc.mean(axis=1).argmax())  # the first maximum, so the earlier draw
    return IAResult(tuple(fold_acc[best].tolist()), float(fold_acc[best].mean()), draws[best])
