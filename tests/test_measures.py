import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphcomplex.measures import (
    _OVERLAP_MIN_CHARS,
    ALL_MEASURES,
    EXCLUDED_MEASURES,
    SAMPLE_MEASURES,
    apply_exclusions,
    char_unigram_model,
    compression_ratio,
    distort,
    feature_entropy,
    inflectional_synthesis,
    lemma_entropy,
    msp,
    plugin_entropy,
    sample_measure_functions,
    serialize_rows,
    serialize_sample,
    ttr,
    word_entropy,
    word_structure_information,
)

from synthdata import (
    make_sample,
    make_token,
    make_treebank,
    matched_corpora,
    sample_forms,
    single_char_type_sample,
    word_stream_sample,
)


def entropy_oracle(counts):
    """Direct -sum(p log2 p) evaluation, independent of the implementation."""
    total = sum(counts.values())
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


class TestPluginEntropy:
    def test_single_type_is_zero(self):
        assert plugin_entropy([1]) == 0.0
        assert plugin_entropy([999]) == 0.0

    def test_uniform_over_four(self):
        assert plugin_entropy([1, 1, 1, 1]) == pytest.approx(2.0)

    def test_three_one_split(self):
        assert plugin_entropy([3, 1]) == pytest.approx(0.811278, abs=1e-6)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            plugin_entropy([])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            plugin_entropy([0])

    @given(
        counts=st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.integers(min_value=1, max_value=1000),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_and_bounds(self, counts):
        h = plugin_entropy(list(counts.values()))
        assert h == pytest.approx(entropy_oracle(counts), abs=1e-9)
        assert 0.0 <= h <= math.log2(len(counts)) + 1e-9


def words(*forms, lemma=None, feats=None):
    return make_sample([[make_token(f, lemma=lemma if lemma else f, feats=feats) for f in forms]])


class TestTtr:
    def test_all_distinct(self):
        assert ttr(words("a", "b", "c", "d")) == 1.0

    def test_single_type(self):
        assert ttr(words("x", "x", "x", "x")) == 0.25

    def test_mixed(self):
        assert ttr(words("a", "b", "a", "c")) == 0.75


class TestEntropyMeasures:
    def test_word_entropy_uses_forms(self):
        sample = words("a", "a", "a", "b")
        assert word_entropy(sample) == pytest.approx(0.811278, abs=1e-6)

    def test_lemma_entropy_skips_empty_lemmas(self):
        sample = make_sample(
            [
                [
                    make_token("walked", lemma="walk"),
                    make_token("walks", lemma="walk"),
                    make_token("??", lemma=""),
                ]
            ]
        )
        assert lemma_entropy(sample) == 0.0

    def test_lemma_entropy_unavailable_without_lemmas(self):
        sample = make_sample([[make_token("a", lemma=""), make_token("b", lemma="")]])
        assert lemma_entropy(sample) is None


class TestMsp:
    def test_one_lemma_three_forms(self):
        sample = make_sample(
            [[make_token(f, lemma="walk") for f in ("walk", "walks", "walked")]]
        )
        assert msp(sample) == 3.0

    def test_identity_mapping(self):
        assert msp(words("a", "b", "c")) == 1.0

    def test_four_forms_two_lemmas(self):
        sample = make_sample(
            [
                [
                    make_token("a", lemma="x"),
                    make_token("b", lemma="x"),
                    make_token("c", lemma="y"),
                    make_token("d", lemma="y"),
                ]
            ]
        )
        assert msp(sample) == 2.0

    def test_unavailable_without_lemmas(self):
        sample = make_sample([[make_token("a", lemma="")]])
        assert msp(sample) is None


class TestInflectionalSynthesis:
    def test_union_of_keys_per_lemma(self):
        tokens = [
            make_token("on", lemma="olla", feats={"Tense": "Pres", "Mood": "Ind", "Person": "3"}),
            make_token("oli", lemma="olla", feats={"Tense": "Past", "Number": "Sing", "Voice": "Act"}),
        ]
        assert inflectional_synthesis(make_sample([tokens])) == 5.0

    def test_singleton(self):
        tokens = [
            make_token("a", lemma="a"),
            make_token("b", lemma="b", feats={"Number": "Sing"}),
        ]
        assert inflectional_synthesis(make_sample([tokens])) == 1.0

    def test_max_rule(self):
        tokens = [
            make_token("x", lemma="x", feats={f"K{i}": "v" for i in range(3)}),
            make_token("y", lemma="y", feats={f"K{i}": "v" for i in range(7)}),
        ]
        assert inflectional_synthesis(make_sample([tokens])) == 7.0

    def test_pair_variant_counts_values(self):
        tokens = [
            make_token("a", lemma="l", feats={"Case": "Nom"}),
            make_token("b", lemma="l", feats={"Case": "Gen"}),
        ]
        sample = make_sample([tokens])
        assert inflectional_synthesis(sample) == 1.0
        assert inflectional_synthesis(sample, count_values=True) == 2.0

    def test_unavailable_without_feats(self):
        assert inflectional_synthesis(words("a", "b")) is None

    def test_bounded_by_distinct_keys(self):
        rng = np.random.default_rng(0)
        keys = [f"K{i}" for i in range(6)]
        tokens = [
            make_token(f"w{i}", lemma=f"l{i % 3}",
                       feats={k: "v" for k in rng.choice(keys, size=rng.integers(1, 5), replace=False)})
            for i in range(30)
        ]
        sample = make_sample([tokens])
        distinct = {k for t in tokens for k, _ in t.feats}
        assert inflectional_synthesis(sample) <= len(distinct)


class TestFeatureEntropy:
    def test_single_pair_everywhere(self):
        tokens = [make_token(f"w{i}", lemma="l", feats={"Case": "Nom"}) for i in range(5)]
        assert feature_entropy(make_sample([tokens])) == 0.0

    def test_uniform_over_four_pairs(self):
        feats = [{"Case": "Nom"}, {"Case": "Gen"}, {"Num": "Sg"}, {"Num": "Pl"}]
        tokens = [make_token(f"w{i}", lemma="l", feats=f) for i, f in enumerate(feats)]
        assert feature_entropy(make_sample([tokens])) == pytest.approx(2.0)

    def test_three_one_split(self):
        tokens = [make_token(f"w{i}", lemma="l", feats={"Case": "Nom"}) for i in range(3)]
        tokens.append(make_token("w3", lemma="l", feats={"Case": "Gen"}))
        assert feature_entropy(make_sample([tokens])) == pytest.approx(0.811278, abs=1e-6)

    def test_token_weighted_not_type_weighted(self):
        # one form repeated: its pair still counts once per token
        tokens = [make_token("w", lemma="l", feats={"Case": "Nom"}) for _ in range(3)]
        tokens.append(make_token("v", lemma="l", feats={"Case": "Gen"}))
        assert feature_entropy(make_sample([tokens])) == pytest.approx(0.811278, abs=1e-6)

    def test_unavailable_without_feats(self):
        assert feature_entropy(words("a", "b")) is None


BAG_MEASURES = {
    "ttr": lambda s: ttr(s),
    "wh": lambda s: word_entropy(s),
    "lh": lambda s: lemma_entropy(s),
    "msp": lambda s: msp(s),
    "is": lambda s: inflectional_synthesis(s),
    "mfh": lambda s: feature_entropy(s),
}


@given(permutation_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sentence_permutation_leaves_bag_measures_unchanged(permutation_seed):
    rng = np.random.default_rng(42)
    sentences = [
        [
            make_token(
                f"w{rng.integers(8)}",
                lemma=f"l{rng.integers(4)}",
                feats={f"K{rng.integers(3)}": f"v{rng.integers(2)}"},
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        for _ in range(6)
    ]
    sample = make_sample(sentences)
    perm = np.random.default_rng(permutation_seed).permutation(len(sentences))
    shuffled = make_sample([sentences[i] for i in perm])
    for name, fn in BAG_MEASURES.items():
        # summation order inside the entropy measures may shift the last bit
        assert fn(sample) == pytest.approx(fn(shuffled), abs=1e-12), name


def sample_char_model(sample):
    """The character model of the sample's text."""
    return char_unigram_model(serialize_sample(sample))


class TestCharUnigramModel:
    def test_probabilities_sum_to_one(self):
        _, probabilities = sample_char_model(words("aab", "bc"))
        assert float(probabilities.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_token_weighted_counts(self):
        codes, probabilities = sample_char_model(words("ab", "ab", "cd"))
        probs = dict(zip(codes.tolist(), probabilities))
        assert probs[ord("a")] == pytest.approx(2 / 6)
        assert probs[ord("c")] == pytest.approx(1 / 6)

    def test_delimiters_excluded(self):
        sample = make_sample([[make_token("a b")]])  # rare space-in-form token
        codes, _ = sample_char_model(sample)
        assert codes.tolist() == [ord("a"), ord("b")]
        assert ord(" ") not in codes


class TestDistort:
    def sample(self):
        rng = np.random.default_rng(3)
        forms = [f"word{i:02d}" for i in range(20)]
        tokens = [make_token(forms[int(rng.integers(20))]) for _ in range(200)]
        return make_sample([tokens[i : i + 10] for i in range(0, 200, 10)])

    def test_length_preserved(self):
        sample = self.sample()
        rows = distort(sample, np.random.default_rng(0), serialize_sample(sample))
        originals = sample_forms(sample)
        replaced = [w for row in rows for w in row]
        assert [len(w) for w in replaced] == [len(w) for w in originals]

    def test_type_consistent_mapping(self):
        sample = self.sample()
        rows = distort(sample, np.random.default_rng(0), serialize_sample(sample))
        mapping = {}
        for form, rep in zip(sample_forms(sample), (w for row in rows for w in row)):
            assert mapping.setdefault(form, rep) == rep

    def test_injective(self):
        sample = self.sample()
        rows = distort(sample, np.random.default_rng(0), serialize_sample(sample))
        mapping = {}
        for form, rep in zip(sample_forms(sample), (w for row in rows for w in row)):
            mapping[form] = rep
        assert len(set(mapping.values())) == len(mapping)

    def test_distorted_ttr_unchanged(self):
        sample = self.sample()
        rows = distort(sample, np.random.default_rng(1), serialize_sample(sample))
        replaced = [w for row in rows for w in row]
        assert len(set(replaced)) / len(replaced) == ttr(sample)

    def test_no_delimiters_in_replacements(self):
        sample = self.sample()
        rows = distort(sample, np.random.default_rng(2), serialize_sample(sample))
        for row in rows:
            for w in row:
                assert not set(w) & {" ", "\n", "\r", "\t"}

    def test_injectivity_under_forced_collisions(self):
        # Two one-letter types over a one-letter-dominated model collide often.
        tokens = [make_token(f) for f in ("a", "b")] + [make_token("a")] * 50
        sample = make_sample([tokens])
        rows = distort(sample, np.random.default_rng(0), serialize_sample(sample))
        flat = [w for row in rows for w in row]
        assert flat[0] != flat[1]

    def test_retry_budget_exhaustion_falls_back_and_warns(self, caplog):
        # "b" is drawn once in 2001 characters, so "a" keeps colliding with
        # the "a" that the earlier type "b" drew.
        sample = make_sample([[make_token("b")] + [make_token("a")] * 2000])
        with caplog.at_level("WARNING", logger="morphcomplex.measures"):
            rows = distort(sample, np.random.default_rng(0), serialize_sample(sample))
        assert rows[0][:2] == ["a", "b"]
        assert set(rows[0][1:]) == {"b"}
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["distort"]


class TestWordStructure:
    def test_identity_distortion_is_zero(self):
        sample = self.tiny()
        text = serialize_sample(sample)
        assert compression_ratio(text) - compression_ratio(text) == 0.0

    def tiny(self):
        return words("alpha", "beta", "alpha", "gamma", "beta", "alpha")

    def test_serialization_layout(self):
        sample = make_sample([[make_token("a"), make_token("b")], [make_token("c")]])
        assert serialize_sample(sample) == "a b\nc"
        assert serialize_rows([["x", "y"]]) == "x y"

    def test_single_char_types_give_near_zero_ws(self):
        sample = single_char_type_sample(seed=0)
        ws = word_structure_information(sample, np.random.default_rng(0))
        assert abs(ws) < 0.02

    def test_agglutinative_scores_higher_than_isolating(self):
        agglutinative, isolating = matched_corpora(seed=0)
        ws_agg = word_structure_information(agglutinative, np.random.default_rng(1))
        ws_iso = word_structure_information(isolating, np.random.default_rng(1))
        assert ws_agg > ws_iso

    def test_deterministic_given_stream(self):
        sample = self.tiny()
        a = word_structure_information(sample, np.random.default_rng(5))
        b = word_structure_information(sample, np.random.default_rng(5))
        assert a == b

    @pytest.mark.parametrize("seed", [0, 4])
    def test_equals_the_two_ratios_computed_in_line(self, seed):
        """Compressing the original on a helper thread, as ws does on long
        texts, changes no bit of ws, also on the one-character samples that
        reach ``_next_free``."""
        samples = [
            self.tiny(),
            single_char_type_sample(seed=seed),
            single_char_type_sample(seed=seed, n_tokens=20000),
            *matched_corpora(seed=seed, n_tokens=6000),
            make_sample([[make_token("b")] + [make_token("a")] * 2000]),
            make_sample([[make_token("b")] + [make_token("a")] * 20000]),
        ]
        long = [len(serialize_sample(s)) >= _OVERLAP_MIN_CHARS for s in samples]
        assert long == [False, False, True, True, True, False, True]
        for sample in samples:
            text = serialize_sample(sample)
            expected = compression_ratio(
                serialize_rows(distort(sample, np.random.default_rng(seed), text))
            ) - compression_ratio(text)
            assert word_structure_information(sample, np.random.default_rng(seed)) == expected

    def test_non_ascii_fallback_value_pinned(self, caplog):
        """ws on one-character types of Greek letters and one astral-plane
        character, most tokens the astral one: three types exhaust the retry
        budget, so ``_next_free`` wraps from the last code point to the first."""
        forms = [*"αβγδεζηθικλ", "\U0001d538"]
        weights = np.array([1] * 11 + [50]) / 61
        sample = word_stream_sample(forms, np.random.default_rng(4).choice(12, 2000, p=weights))
        with caplog.at_level("WARNING", logger="morphcomplex.measures"):
            ws = word_structure_information(sample, np.random.default_rng(4))
        assert len(caplog.records) == 3
        assert ws == -0.00021544759237315803

    def test_long_sample_values_pinned(self):
        """ws on two 48,000-character samples, which take the helper-thread
        path; the digest pins of the pipeline use 200-token samples only."""
        samples = matched_corpora(seed=0, n_tokens=6000)
        assert [len(serialize_sample(s)) for s in samples] == [47999, 47999]
        values = [word_structure_information(s, np.random.default_rng(0)) for s in samples]
        assert values == [0.037604950103127144, 0.00041667534740302825]


class TestRegistry:
    def test_all_sample_measures_available(self):
        fns = sample_measure_functions(SAMPLE_MEASURES, False)
        assert set(fns) == {"ttr", "ws", "wh", "lh", "msp", "is", "mfh"}

    def test_functions_apply(self):
        sample = words("a", "b", "a")
        fns = sample_measure_functions(["ttr", "wh"], False)
        assert fns["ttr"](sample, np.random.default_rng(0)) == pytest.approx(2 / 3)
        assert fns["wh"](sample, np.random.default_rng(0)) == pytest.approx(
            entropy_oracle(Counter(["a", "b", "a"])), abs=1e-12
        )


def featureless_treebank(tb_id, n_keys):
    feats = {f"K{i}": "v" for i in range(n_keys)}
    return make_treebank(tb_id, [[make_token("a", "a", feats=feats)]])


class TestExclusions:
    def test_table(self):
        assert EXCLUDED_MEASURES == {
            "no-morph-features": ("is", "mfh", "neg_ia"),
            "non-alphabetic-script": ("ws",),
        }
        assert {m for ms in EXCLUDED_MEASURES.values() for m in ms} <= set(ALL_MEASURES)

    def test_threshold_rule(self):
        tb = featureless_treebank("ja_x", 2)
        assert apply_exclusions(tb, 3, frozenset()) == ("no-morph-features",)

    def test_rich_treebank_kept(self):
        tb = featureless_treebank("fi_x", 29)
        assert apply_exclusions(tb, 3, frozenset()) == ()

    def test_deny_list_hits_ws_only(self):
        tb = featureless_treebank("zh_gsd", 10)
        assert apply_exclusions(tb, 3, frozenset({"zh_gsd"})) == ("non-alphabetic-script",)

    def test_both_rules(self):
        tb = featureless_treebank("zh_x", 0)
        assert apply_exclusions(tb, 3, frozenset({"zh_x"})) == (
            "no-morph-features", "non-alphabetic-script",
        )

    def test_partition(self):
        tbs = [featureless_treebank(f"t{i}", i) for i in range(6)]
        assert [bool(apply_exclusions(tb, 3, frozenset())) for tb in tbs] == [True] * 3 + [False] * 3

    def test_empty_kept_is_allowed(self):
        tbs = [featureless_treebank("a_x", 0), featureless_treebank("b_x", 1)]
        assert all(apply_exclusions(tb, 3, frozenset()) for tb in tbs)
