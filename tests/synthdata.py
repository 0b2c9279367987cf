"""Synthetic corpora shared by unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from morphcomplex.conllu import Sentence, Token, Treebank
from morphcomplex.sampling import Sample

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def make_token(form: str, lemma: str | None = None, upos: str = "X",
               feats: dict[str, str] | None = None) -> Token:
    pairs = tuple(sorted((feats or {}).items()))
    return Token(form=form, lemma=lemma if lemma is not None else form, upos=upos, feats=pairs)


def make_sample(sentences: list[list[Token]]) -> Sample:
    sents = tuple(Sentence(tuple(toks)) for toks in sentences)
    return Sample(sents, sum(len(s) for s in sents))


def make_treebank(id: str, language_code: str, sentences: list[list[Token]]) -> Treebank:
    return Treebank.build(id, language_code, tuple(Sentence(tuple(t)) for t in sentences))


def random_word(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(list(_ALPHABET), size=length))


def distinct_words(rng: np.random.Generator, count: int, length: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        w = random_word(rng, length)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def word_stream_sample(forms: list[str], indexes: np.ndarray, sentence_len: int = 10) -> Sample:
    sentences: list[list[Token]] = []
    current: list[Token] = []
    for idx in indexes:
        current.append(make_token(forms[int(idx)]))
        if len(current) == sentence_len:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return make_sample(sentences)


def matched_corpora(seed: int, n_stems: int = 20, n_suffixes: int = 20,
                    n_tokens: int = 3000) -> tuple[Sample, Sample]:
    """Agglutinative corpus (forms = stem+suffix) and an isolating twin.

    Both corpora share the token sequence, the vocabulary size and every
    word length; only the isolating one lacks shared sub-word structure.
    """
    rng = np.random.default_rng(seed)
    stems = distinct_words(rng, n_stems, 4)
    suffixes = distinct_words(rng, n_suffixes, 3)
    agglutinative_forms = [s + suf for s in stems for suf in suffixes]
    isolating_forms = distinct_words(rng, n_stems * n_suffixes, 7)
    indexes = rng.integers(0, len(agglutinative_forms), size=n_tokens)
    return (
        word_stream_sample(agglutinative_forms, indexes),
        word_stream_sample(isolating_forms, indexes),
    )


def single_char_type_sample(seed: int, n_types: int = 12, n_tokens: int = 2000) -> Sample:
    """Corpus whose word types are all single characters."""
    rng = np.random.default_rng(seed)
    forms = list(_ALPHABET[:n_types])
    indexes = rng.integers(0, n_types, size=n_tokens)
    return word_stream_sample(forms, indexes)


def regular_toy_instances(n_lemmas: int, seed: int):
    """Fully regular toy inflection data: plural "s", past "ed".

    Returns InflectionInstance triples for every lemma in three cells.
    """
    from morphcomplex.inflection import InflectionInstance

    rng = np.random.default_rng(seed)
    lemmas = distinct_words(rng, n_lemmas, int(rng.integers(3, 7)))
    instances = []
    for lemma in lemmas:
        instances.append(InflectionInstance(lemma, "Number=Sing", lemma))
        instances.append(InflectionInstance(lemma, "Number=Plur", lemma + "s"))
        instances.append(InflectionInstance(lemma, "Tense=Past", lemma + "ed"))
    return instances


def conllu_text(sentences: list[list[Token]]) -> str:
    """CoNLL-U serialization, one ``# sent_id`` comment per sentence."""
    lines: list[str] = []
    for number, sentence in enumerate(sentences, start=1):
        lines.append(f"# sent_id = {number}")
        for idx, tok in enumerate(sentence, start=1):
            feats = "|".join(f"{k}={v}" for k, v in tok.feats) or "_"
            lines.append(f"{idx}\t{tok.form}\t{tok.lemma or '_'}\t{tok.upos}\t_\t{feats}\t0\tdep\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


def suffixing_sentences(seed: int, n_lemmas: int, n_cells: int, n_keys: int, n_tokens: int,
                        sentence_len: int = 8) -> list[list[Token]]:
    """Nouns inflected by one suffix per cell; every cell carries the same
    ``n_keys`` feature keys (at most 6) with cell-dependent values."""
    keys = ("Case", "Number", "Definite", "Gender", "Person", "Degree")[:n_keys]
    rng = np.random.default_rng(seed)
    lemmas = distinct_words(rng, n_lemmas, 5)
    suffixes = distinct_words(rng, n_cells, 2)
    tokens = []
    for lemma_idx, cell in zip(rng.integers(0, n_lemmas, n_tokens), rng.integers(0, n_cells, n_tokens)):
        lemma = lemmas[int(lemma_idx)]
        feats = {key: f"V{cell % (j + 2)}" for j, key in enumerate(keys)}
        tokens.append(make_token(lemma + suffixes[int(cell)], lemma, "NOUN", feats))
    return [tokens[i:i + sentence_len] for i in range(0, n_tokens, sentence_len)]
