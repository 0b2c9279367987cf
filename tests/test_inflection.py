import os
import subprocess
import sys
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphcomplex.inflection import (
    EditScript,
    Hyperparams,
    IASearchConfig,
    InflectionInstance,
    canonical_bundle,
    cross_validate,
    derive_edit_script,
    extract_instances,
    featurize,
    predict,
    predict_batch,
    train,
)

from synthdata import distinct_words, make_sample, make_token, regular_toy_instances

WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=12)


class TestCanonicalBundle:
    def test_order_insensitive(self):
        a = canonical_bundle([("Number", "Sing"), ("Case", "Nom")])
        b = canonical_bundle([("Case", "Nom"), ("Number", "Sing")])
        assert a == b == "Case=Nom|Number=Sing"


class TestExtractInstances:
    def test_field_mapping(self):
        sample = make_sample([[make_token("walked", lemma="walk", feats={"Tense": "Past"})]])
        [inst] = extract_instances(sample)
        assert inst == InflectionInstance("walk", "Tense=Past", "walked")

    def test_duplicates_collapse(self):
        tok = make_token("walked", lemma="walk", feats={"Tense": "Past"})
        sample = make_sample([[tok] * 40])
        assert len(extract_instances(sample)) == 1

    def test_conflicting_forms_all_kept(self):
        sample = make_sample(
            [
                [
                    make_token("went", lemma="go", feats={"Tense": "Past"}),
                    make_token("goed", lemma="go", feats={"Tense": "Past"}),
                ]
            ]
        )
        assert len(extract_instances(sample)) == 2

    def test_featureless_and_lemmaless_skipped(self):
        sample = make_sample(
            [
                [
                    make_token("bare"),
                    make_token("nolemma", lemma="", feats={"Case": "Nom"}),
                ]
            ]
        )
        assert extract_instances(sample) == []


def reference_longest_common_substring(a: str, b: str) -> tuple[int, int, int]:
    """(start_a, start_b, length) of the longest common substring, by dynamic
    programming; ties break on the leftmost start in ``a``, then in ``b``."""
    best = (0, 0, 0)
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best[2]:
                    best = (i - cur[j], j - cur[j], cur[j])
        prev = cur
    return best


class TestEditScript:
    def test_pure_suffixation(self):
        script = derive_edit_script("walk", "walked")
        assert script == EditScript(0, "", 0, "ed")
        assert script.apply("walk") == "walked"

    def test_identity(self):
        script = derive_edit_script("x", "x")
        assert script == EditScript(0, "", 0, "")
        assert script.apply("x") == "x"

    def test_prefixation(self):
        script = derive_edit_script("geben", "gegeben")
        assert script.apply("geben") == "gegeben"
        assert script.prefix_add == "ge"
        assert script.prefix_drop == 0
        assert script.suffix_drop == 0
        assert script.suffix_add == ""

    def test_disjoint_strings_full_replace(self):
        script = derive_edit_script("abc", "xyz")
        assert script == EditScript(3, "xyz", 0, "")
        assert script.apply("abc") == "xyz"

    def test_tie_breaks_leftmost_in_lemma_then_form(self):
        script = derive_edit_script("ab", "ba")
        # anchor "a": drop the lemma's trailing "b", prepend the form's "b"
        assert script == EditScript(0, "b", 1, "")
        assert script.apply("ab") == "ba"

    def test_fits_and_clamping(self):
        script = EditScript(3, "xyz", 0, "")
        assert script.fits("abc")
        assert not script.fits("ab")
        assert script.apply_clamped("ab") == "xyz"

    @given(lemma=WORDS, form=WORDS)
    @settings(max_examples=400, deadline=None)
    def test_round_trip(self, lemma, form):
        assert derive_edit_script(lemma, form).apply(lemma) == form

    @given(lemma=WORDS, form=WORDS)
    @settings(max_examples=400, deadline=None)
    def test_alignment_matches_reference(self, lemma, form):
        start_l, start_f, length = reference_longest_common_substring(lemma, form)
        expected = EditScript(
            start_l, form[:start_f], len(lemma) - start_l - length, form[start_f + length :]
        ) if length else EditScript(len(lemma), form, 0, "")
        assert derive_edit_script(lemma, form) == expected

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            derive_edit_script("", "x")
        with pytest.raises(ValueError):
            derive_edit_script("x", "")


class TestFeaturize:
    def test_edge_ngrams_present(self):
        feats = featurize("tal", "Case=Nom", ngram_order=2)
        assert {"^t", "^ta", "l$", "al$"} <= set(feats)

    def test_bundle_indicators(self):
        feats = featurize("tal", "Case=Nom|Number=Sing", ngram_order=1)
        assert "Case=Nom" in feats
        assert "Number=Sing" in feats
        assert "Case=Nom&end=l" in feats

    def test_deterministic(self):
        a = featurize("tal", "Case=Nom", 3)
        b = featurize("tal", "Case=Nom", 3)
        assert a == b

    def test_short_lemma_caps_order(self):
        feats = featurize("ab", "X=1", ngram_order=4)
        assert "^ab" in feats and "ab$" in feats
        assert not any(f.startswith("^abc") for f in feats)


def toy_model(n_lemmas=30, seed=0, **params):
    instances = regular_toy_instances(n_lemmas, seed=seed)
    hp = Hyperparams(ngram_order=params.get("ngram_order", 3),
                     epochs=params.get("epochs", 10))
    model = train(instances, hp, np.random.default_rng(seed))
    return instances, model


class TestTrainPredict:
    def test_regular_system_reaches_training_accuracy_one(self):
        instances, model = toy_model()
        correct = sum(
            1 for inst in instances
            if predict(model, inst.lemma, inst.feature_bundle) == inst.form
        )
        assert correct == len(instances)

    def test_toy_plural(self):
        _, model = toy_model()
        assert predict(model, "dog", "Number=Plur") == "dogs"
        assert predict(model, "dog", "Tense=Past") == "doged"

    def test_single_class_degenerate_model(self):
        instances = [
            InflectionInstance("aa", "X=1", "aa"),
            InflectionInstance("bb", "X=2", "bb"),
        ]
        model = train(instances, Hyperparams(2, 3), np.random.default_rng(0))
        assert len(model.scripts) == 1
        assert predict(model, "zz", "X=1") == "zz"

    def test_identical_inputs_identical_weights(self):
        _, m1 = toy_model(seed=4)
        _, m2 = toy_model(seed=4)
        assert m1.feature_ids == m2.feature_ids
        assert np.array_equal(m1.weights, m2.weights)

    def test_unfitting_scripts_skipped_in_ranking(self):
        # both classes present; the long-drop script cannot apply to a short lemma
        instances = [
            InflectionInstance("abcdef", "X=1", "zzzzzz"),
            InflectionInstance("ab", "X=2", "abs"),
        ]
        model = train(instances, Hyperparams(2, 5), np.random.default_rng(0))
        out = predict(model, "xy", "X=1")
        # EditScript(6, "zzzzzz", 0, "") does not fit a 2-char lemma
        assert out in ("xys", "zzzzzz")
        assert out == "xys"

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train([], Hyperparams(1, 1), np.random.default_rng(0))


# Reference: the dict-of-dicts averaged perceptron with per-cell time stamps
# and a float step, as the learner was before it moved to integer arrays.
class _AveragedWeights:
    """Sparse multiclass weights with lazily-averaged accumulators."""

    __slots__ = ("n_classes", "_w", "_acc", "_stamp", "_t")

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self._w: dict[str, dict[int, float]] = {}
        self._acc: dict[str, dict[int, float]] = {}
        self._stamp: dict[str, dict[int, int]] = {}
        self._t = 0

    def tick(self):
        self._t += 1

    def scores(self, features: Sequence[str]) -> np.ndarray:
        s = np.zeros(self.n_classes)
        for f in features:
            row = self._w.get(f)
            if row:
                for c, w in row.items():
                    s[c] += w
        return s

    def _bump(self, feature: str, cls: int, amount: float):
        w = self._w.setdefault(feature, {})
        acc = self._acc.setdefault(feature, {})
        stamp = self._stamp.setdefault(feature, {})
        acc[cls] = acc.get(cls, 0.0) + (self._t - stamp.get(cls, 0)) * w.get(cls, 0.0)
        stamp[cls] = self._t
        w[cls] = w.get(cls, 0.0) + amount

    def update(self, features: Sequence[str], gold: int, predicted: int, step: float):
        for f in features:
            self._bump(f, gold, step)
            self._bump(f, predicted, -step)

    def averaged(self) -> dict[str, dict[int, float]]:
        if self._t == 0:
            return {}
        out: dict[str, dict[int, float]] = {}
        for f, row in self._w.items():
            acc = self._acc[f]
            stamp = self._stamp[f]
            avg = {}
            for c, w in row.items():
                total = acc.get(c, 0.0) + (self._t - stamp.get(c, 0)) * w
                value = total / self._t
                if value != 0.0:
                    avg[c] = value
            if avg:
                out[f] = avg
        return out


def reference_train(instances, ngram_order, epochs, step, rng):
    """The reference training loop; returns (classes, averaged weights, steps)."""
    scripts = [derive_edit_script(i.lemma, i.form) for i in instances]
    classes = tuple(sorted(set(scripts)))
    class_index = {s: i for i, s in enumerate(classes)}
    labels = [class_index[s] for s in scripts]
    feats = [featurize(i.lemma, i.feature_bundle, ngram_order) for i in instances]
    weights = _AveragedWeights(len(classes))
    if len(classes) > 1:
        n = len(instances)
        for _ in range(epochs):
            for idx in rng.permutation(n):
                weights.tick()
                x = feats[idx]
                predicted = int(np.argmax(weights.scores(x)))
                if predicted != labels[idx]:
                    weights.update(x, labels[idx], predicted, step)
    return classes, weights.averaged(), weights._t


def reference_predict(classes, averaged, ngram_order, lemma, feature_bundle):
    s = np.zeros(len(classes))
    for f in featurize(lemma, feature_bundle, ngram_order):
        for c, w in averaged.get(f, {}).items():
            s[c] += w
    order = np.argsort(-s, kind="stable")
    for c in order:
        if classes[int(c)].fits(lemma):
            return classes[int(c)].apply(lemma)
    return classes[int(order[0])].apply_clamped(lemma)


def irregular_toy_instances(n_lemmas: int, seed: int):
    """Regular toy data in which every third lemma has a suppletive past."""
    instances = regular_toy_instances(n_lemmas, seed)
    forms = distinct_words(np.random.default_rng(seed + 100), n_lemmas, 6)
    return [
        InflectionInstance(i.lemma, i.feature_bundle, forms[k // 3])
        if i.feature_bundle == "Tense=Past" and k // 3 % 3 == 0 else i
        for k, i in enumerate(instances)
    ]


class TestMatchesReferenceLearner:
    """At step 1 the integer learner's weights are the reference's averaged
    weights times the step count T, exactly.  Both sides are integers below
    2**53 divided by T, so the comparison ``weights / T == averaged`` is
    exact in floats."""

    @pytest.mark.parametrize(
        "instances",
        [
            regular_toy_instances(30, seed=0),
            irregular_toy_instances(30, seed=1),
            [InflectionInstance(w, "X=1", w + "s") for w in ("dog", "cat", "ox")],
            [
                InflectionInstance(i.lemma, f"{i.feature_bundle}|{i.feature_bundle}", i.form)
                for i in regular_toy_instances(10, seed=2)
            ],
        ],
        ids=["regular", "irregular", "single-class", "repeated-feature"],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_weights_and_predictions(self, instances, seed):
        assert_matches_reference(instances, Hyperparams(ngram_order=3, epochs=7), seed)

    @pytest.mark.parametrize("ngram_order", [1, 4])
    def test_past_one_block(self, ngram_order):
        """Epochs span many argmax blocks, so mistakes end blocks early and
        training resumes mid-block."""
        instances = irregular_toy_instances(80, seed=3)
        assert len(instances) == 240
        model = assert_matches_reference(instances, Hyperparams(ngram_order, epochs=6), seed=2)
        assert len(model.scripts) == 30


def assert_matches_reference(instances, params, seed):
    model = train(instances, params, np.random.default_rng(seed))
    classes, averaged, steps = reference_train(
        instances, params.ngram_order, params.epochs, 1.0, np.random.default_rng(seed)
    )
    assert model.scripts == classes
    expected = np.zeros(model.weights.shape)
    for f, row in averaged.items():
        for c, value in row.items():
            expected[model.feature_ids[f], c] = value
    if steps:
        assert np.array_equal(model.weights / steps, expected)
    else:
        assert len(classes) == 1 and not model.weights.any()
    queries = [(i.lemma, i.feature_bundle) for i in instances]
    queries += [("zebra", b) for b in ("Number=Plur", "Tense=Past", "X=1", "Y=2")]
    for lemma, bundle in queries:
        assert predict(model, lemma, bundle) == reference_predict(
            classes, averaged, params.ngram_order, lemma, bundle
        )
    return model


def test_cli_import_does_not_load_scipy_sparse():
    """The learner imports ``scipy.sparse`` on first use, so runs without
    -IA do not pay for it."""
    import morphcomplex

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(morphcomplex.__file__))}
    code = "import sys, morphcomplex.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


class TestPredictBatch:
    """The batched scorer gives each row what a one-row call gives it."""

    QUERIES = [
        ("zebra", "Number=Plur"),  # unseen characters
        ("quux", "Mood=Imp|Tense=Past"),  # an unseen pair
        ("q", "Tense=Past"),  # shorter than most scripts' drops
        ("xy", "X=1"),
    ]

    @staticmethod
    def check(model, queries):
        lemmas = [lemma for lemma, _ in queries]
        feats = [featurize(lemma, b, model.params.ngram_order) for lemma, b in queries]
        assert predict_batch(model, lemmas, feats) == [predict(model, *q) for q in queries]

    def test_held_out_queries(self):
        instances = irregular_toy_instances(80, seed=3)
        model = train(instances, Hyperparams(4, 6), np.random.default_rng(2))
        self.check(model, self.QUERIES + [(i.lemma, i.feature_bundle) for i in instances[::7]])

    def test_clamped_when_no_script_fits(self):
        # Upper-case forms share no substring with their lemmas, so every
        # script drops the whole lemma and none fits a one-letter lemma.
        instances = [
            InflectionInstance(i.lemma, i.feature_bundle, i.lemma.upper() + i.feature_bundle[0])
            for i in regular_toy_instances(20, seed=4)
        ]
        model = train(instances, Hyperparams(2, 5), np.random.default_rng(0))
        assert not any(s.fits("q") for s in model.scripts)
        assert predict(model, "q", "Tense=Past") in {s.apply_clamped("q") for s in model.scripts}
        self.check(model, self.QUERIES)


class TestCrossValidate:
    def test_regular_toy_language_high_accuracy(self):
        instances = regular_toy_instances(50, seed=1)
        config = IASearchConfig(n_draws=5)
        result = cross_validate(instances, config, np.random.default_rng(1))
        assert result.mean_accuracy >= 0.95
        assert result.measure_value <= -0.95
        assert result.measure_value == -result.mean_accuracy

    def test_fold_accuracies_shape_and_range(self):
        instances = regular_toy_instances(20, seed=2)
        result = cross_validate(instances, IASearchConfig(n_draws=3), np.random.default_rng(2))
        assert len(result.fold_accuracies) == 3
        assert all(0.0 <= a <= 1.0 for a in result.fold_accuracies)
        assert result.mean_accuracy == pytest.approx(np.mean(result.fold_accuracies))

    def test_suppletive_data_scores_near_zero(self):
        rng = np.random.default_rng(3)
        alphabet = list("abcdefghijklmnop")
        instances = []
        seen = set()
        while len(instances) < 60:
            lemma = "".join(rng.choice(alphabet, size=5))
            form = "".join(rng.choice(list("qrstuvwxyz"), size=7))
            if lemma in seen or form in seen:
                continue
            seen.add(lemma)
            seen.add(form)
            instances.append(InflectionInstance(lemma, "X=1", form))
        result = cross_validate(instances, IASearchConfig(n_draws=3), np.random.default_rng(3))
        assert result.mean_accuracy <= 0.05

    def test_deterministic(self):
        instances = regular_toy_instances(20, seed=5)
        config = IASearchConfig(n_draws=4)
        a = cross_validate(instances, config, np.random.default_rng(9))
        b = cross_validate(instances, config, np.random.default_rng(9))
        assert a == b

    def test_too_few_instances_rejected(self):
        with pytest.raises(ValueError):
            cross_validate(
                [InflectionInstance("a", "X=1", "a")] * 2,
                IASearchConfig(),
                np.random.default_rng(0),
            )

    def test_predictions_come_from_scripts_not_memory(self):
        # Every held-out (lemma, bundle) also occurs in training with a
        # different unique form, so memorization cannot score; accuracy must
        # equal an independent replay of script applications.
        rng = np.random.default_rng(7)
        train_set, test_set = [], []
        for i in range(40):
            lemma = f"lem{i:02d}"
            train_set.append(InflectionInstance(lemma, "X=1", lemma + "s"))
            test_set.append(InflectionInstance(lemma, "X=1", lemma + "qq"))
        model = train(train_set, Hyperparams(3, 8), rng)
        replay_hits = 0
        for inst in test_set:
            predicted = predict(model, inst.lemma, inst.feature_bundle)
            applied = {
                s.apply(inst.lemma) for s in model.scripts if s.fits(inst.lemma)
            } | {s.apply_clamped(inst.lemma) for s in model.scripts}
            assert predicted in applied
            if predicted == inst.form:
                replay_hits += 1
        assert replay_hits == 0  # the "qq" forms were never seen as a script
