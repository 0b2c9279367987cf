"""The columnar core against the object-tree references in ``reference.py``."""

import numpy as np
import pytest

import reference as ref
from morphcomplex import measures
from morphcomplex.conllu import parse_conllu
from morphcomplex.inflection import extract_instances
from morphcomplex.sampling import bootstrap_sample, sample_rng

from synthdata import conllu_text, suffixing_sentences, treebank_tokens

KEYS = ("Case", "Number", "Gender", "Person", "Tense", "Mood")


def random_conllu(seed: int, n_sentences: int = 400) -> str:
    """Varied CoNLL-U: shared and lemmaless forms, unsorted and empty FEATS,
    range lines, empty nodes and comments."""
    rng = np.random.default_rng(seed)
    stems = [f"st{i}" for i in range(60)]
    lines = []
    for s in range(n_sentences):
        lines.append(f"# sent_id = {s}")
        for i in range(1, int(rng.integers(1, 15)) + 1):
            if rng.random() < 0.05:
                lines.append(f"{i}-{i + 1}\tfused\t_\t_\t_\t_\t_\t_\t_\t_")
            stem = stems[int(rng.zipf(1.5)) % len(stems)]
            lemma = "_" if rng.random() < 0.1 else stem
            keys = rng.choice(KEYS, size=int(rng.integers(0, 4)), replace=False)
            feats = "|".join(f"{k}=V{rng.integers(3)}" for k in keys) or "_"
            form = stem + "abcde"[int(rng.integers(5))] * int(rng.integers(0, 3))
            lines.append(f"{i}\t{form}\t{lemma}\tX\t_\t{feats}\t0\tdep\t_\t_")
            if rng.random() < 0.03:
                lines.append(f"{i}.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


# FEATS cells whose canonical text rests on the key sort: the same pairs in two
# orders, a key that is a prefix of another, and values that hold "=".
BUNDLE_CELLS = (
    "Number=Sing|Case=Nom", "Case=Nom|Number=Sing", "A-B=y|A=x", "A=x|A-B=y", "A=b=c|B=d",
    "B=d|A=b", "A==|A-B=y", "_",
)


def bundle_conllu(seed: int) -> str:
    """CoNLL-U over ``BUNDLE_CELLS``, with some lemmaless tokens."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(80):
        for i in range(1, 6):
            lemma = "_" if rng.random() < 0.1 else f"l{rng.integers(8)}"
            cell = BUNDLE_CELLS[rng.integers(len(BUNDLE_CELLS))]
            lines.append(f"{i}\tf{rng.integers(20)}\t{lemma}\tX\t_\t{cell}\t0\tdep\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


def both(text: str):
    return parse_conllu(text, "tb"), ref.parse_conllu(text, "tb", "xx")


def drawn_indices(ref_tb, sample):
    """Treebank sentence index of each drawn reference sentence; a truncated
    last sentence still shares its first token object with the original."""
    index = {id(s.tokens[0]): i for i, s in enumerate(ref_tb.sentences)}
    return [index[id(s.tokens[0])] for s in sample.sentences]


@pytest.mark.parametrize(
    "text",
    [pytest.param(random_conllu(s), id=str(s)) for s in (0, 1, 2)]
    + [pytest.param(bundle_conllu(0), id="bundles")],
)
def test_parser_matches_reference(text):
    tb, ref_tb = both(text)
    expected = [[(t.form, t.lemma, t.feats) for t in s.tokens] for s in ref_tb.sentences]
    assert [[(t.form, t.lemma, t.feats) for t in s] for s in treebank_tokens(tb)] == expected
    assert (tb.n_tokens, tb.n_feature_keys) == (ref_tb.n_tokens, ref_tb.n_feature_keys)


def with_long_sentence(text: str, n_tokens: int) -> str:
    """``text`` followed by one sentence of ``n_tokens`` tokens."""
    rows = [
        f"{i}\tlong{i % 9}\tlong\tX\t_\tCase=V{i % 3}\t0\tdep\t_\t_" for i in range(1, n_tokens + 1)
    ]
    return text + "\n".join(rows) + "\n\n"


# The last input's longest sentence is longer than the target: every round
# draws one sentence, and some samples are one truncated sentence.
@pytest.mark.parametrize(
    "target, text",
    [pytest.param(t, random_conllu(4), id=str(t)) for t in (1, 7, 500, 3000)]
    + [
        pytest.param(3000, with_long_sentence(random_conllu(4, 3), 3500), id="longest-over-target")
    ],
)
def test_bootstrap_draws_match_reference(target, text):
    tb, ref_tb = both(text)
    for rep in range(10):
        rng, ref_rng = sample_rng(3, "tb", rep), sample_rng(3, "tb", rep)
        sample = bootstrap_sample(tb, target, rng)
        ref_sample = ref.bootstrap_sample(ref_tb, target, ref_rng)
        drawn = np.searchsorted(tb.sentences, sample.tokens[sample.sentences], side="right") - 1
        assert drawn.tolist() == drawn_indices(ref_tb, ref_sample)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        lengths = [len(row) for row in sample.rows(list(sample.tokens))]
        assert lengths == [len(s) for s in ref_sample.sentences]


EXACT = [
    ("ttr", measures.ttr, ref.ttr),
    ("msp", measures.msp, ref.msp),
    ("is", measures.inflectional_synthesis, ref.inflectional_synthesis),
    ("is-pairs", lambda s: measures.inflectional_synthesis(s, count_values=True),
     lambda s: ref.inflectional_synthesis(s, count_values=True)),
]
CLOSE = [
    ("wh", measures.word_entropy, ref.word_entropy),
    ("lh", measures.lemma_entropy, ref.lemma_entropy),
    ("mfh", measures.feature_entropy, ref.feature_entropy),
]


@pytest.mark.parametrize(
    "seed, text, targets",
    [pytest.param(s, random_conllu(s), [1, 40, 800, 4000], id=str(s)) for s in (5, 6)]
    + [pytest.param(s, bundle_conllu(s), [3, 30, 400], id=f"bundles-{s}") for s in (0, 1)],
)
def test_measures_and_instances_match_reference(seed, text, targets):
    tb, ref_tb = both(text)
    for rep, target in enumerate(targets):
        sample = bootstrap_sample(tb, target, sample_rng(seed, "tb", rep))
        ref_sample = ref.bootstrap_sample(ref_tb, target, sample_rng(seed, "tb", rep))
        for name, new, old in EXACT:
            assert new(sample) == old(ref_sample), name
        for name, new, old in CLOSE:
            expected = old(ref_sample)
            close = None if expected is None else pytest.approx(expected, rel=1e-12)
            assert new(sample) == close, name
        assert extract_instances(sample) == ref.extract_instances(ref_sample)


def test_lemmaless_and_featureless_samples_unavailable_in_both():
    text = "1\ta\t_\tX\t_\t_\t0\tdep\t_\t_\n2\tb\t_\tX\t_\tCase=Nom\t0\tdep\t_\t_\n"
    tb, ref_tb = both(text)
    sample = bootstrap_sample(tb, 2, np.random.default_rng(0))
    ref_sample = ref.bootstrap_sample(ref_tb, 2, np.random.default_rng(0))
    for name, new, old in EXACT + CLOSE:
        assert new(sample) == old(ref_sample), name
    assert measures.msp(sample) is None
    assert extract_instances(sample) == ref.extract_instances(ref_sample) == []


def odd_conllu(seed: int, n_sentences: int = 300) -> str:
    """CoNLL-U whose forms hold an inner space, a lone carriage return, Greek
    and CJK letters and ``_``; a few forms are ``_`` alone, the empty form."""
    rng = np.random.default_rng(seed)
    ends = ("", " b", "\rc", "λόγος", "漢字", "_d", "x_")
    lines = []
    for _ in range(n_sentences):
        for i in range(1, int(rng.integers(1, 12)) + 1):
            form = f"stem{int(rng.zipf(1.5)) % 50:02d}{ends[rng.integers(len(ends))]}"
            form = "_" if rng.random() < 0.03 else form
            lines.append(f"{i}\t{form}\tl\tX\t_\t_\t0\tdep\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


# Only delimiter characters: the character model falls back to ("x",).
DELIMITER_FORMS = "1\t \tl\tX\t_\t_\t0\tdep\t_\t_\n2\t\r\tl\tX\t_\t_\t0\tdep\t_\t_\n"


def both_from_tokens(text: str):
    """``text`` parsed, and the reference treebank of the same tokens: the
    reference parser would end a line at a lone carriage return."""
    tb = parse_conllu(text, "tb")
    return tb, ref.Treebank.build("tb", "xx", tuple(map(ref.Sentence, map(tuple, treebank_tokens(tb)))))


def test_char_model_matches_reference_exactly():
    """Also on odd forms, and on forms of delimiters alone, which fall back to ``ord("x")``."""
    for (tb, ref_tb), target, fallback in (
        (both(random_conllu(7)), 2000, False),
        (both_from_tokens(odd_conllu(0)), 2000, False),
        (both_from_tokens(DELIMITER_FORMS), 50, True),
    ):
        sample = bootstrap_sample(tb, target, np.random.default_rng(1))
        ref_sample = ref.bootstrap_sample(ref_tb, target, np.random.default_rng(1))
        codes, probabilities = measures.char_unigram_model(measures.serialize_sample(sample))
        ref_model = ref.char_unigram_model(ref_sample)
        assert codes.dtype == np.uint32
        assert tuple(map(chr, codes.tolist())) == ref_model.chars
        assert np.array_equal(probabilities, ref_model.probabilities)
        assert (codes.tolist() == [ord("x")]) == fallback


def test_distort_matches_reference_when_no_type_collides():
    """One draw of every type's characters takes the same uniforms as one
    draw per type, so without collisions the two mappings agree; also on
    odd forms."""
    text = conllu_text(suffixing_sentences(seed=3, n_lemmas=40, n_cells=6, n_keys=3, n_tokens=1500))
    for tb, ref_tb in (both(text), both_from_tokens(odd_conllu(1))):
        sample = bootstrap_sample(tb, 1000, np.random.default_rng(2))
        ref_sample = ref.bootstrap_sample(ref_tb, 1000, np.random.default_rng(2))
        text = measures.serialize_sample(sample)
        for seed in range(5):
            rows = measures.distort(sample, np.random.default_rng(seed), text)
            assert rows == ref.distort(ref_sample, np.random.default_rng(seed))
        assert measures.word_structure_information(sample, np.random.default_rng(9)) == (
            ref.word_structure_information(ref_sample, np.random.default_rng(9))
        )
