"""The object-tree implementations the columnar core replaced, kept as test references.

``Token``/``Sentence`` trees, their parser, ``bootstrap_sample``, the seven
sample measures, ``distort`` and ``extract_instances`` as they were before
the treebank became interned ID arrays.  Tests compare the columnar code
with these on the same input.
"""

from __future__ import annotations

import logging
import math
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from morphcomplex.conllu import EMPTY_MARKER, ConlluParseError
from morphcomplex.inflection import InflectionInstance

log = logging.getLogger("morphcomplex.measures")

_N_COLUMNS = 10


@dataclass(frozen=True)


class Token:
    """One syntactic word: surface form, lemma, POS tag and feature pairs."""

    form: str
    lemma: str
    upos: str
    feats: tuple[tuple[str, str], ...] = ()

    def feature_keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.feats)


@dataclass(frozen=True)


class Sentence:
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)


class Treebank:
    id: str
    language_code: str
    sentences: tuple[Sentence, ...]
    n_tokens: int
    n_feature_keys: int

    @classmethod
    def build(cls, id: str, language_code: str, sentences: tuple[Sentence, ...]) -> "Treebank":
        keys = {k for sent in sentences for tok in sent.tokens for k, _ in tok.feats}
        n_tokens = sum(len(s) for s in sentences)
        return cls(id, language_code, sentences, n_tokens, len(keys))

    def __post_init__(self):
        if self.n_tokens != sum(len(s) for s in self.sentences):
            raise ValueError(f"treebank {self.id}: n_tokens does not match sentence lengths")


def _parse_feats(cell: str, line_no: int) -> tuple[tuple[str, str], ...]:
    if cell == "_":
        return ()
    pairs: dict[str, str] = {}
    for item in cell.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ConlluParseError(f"unparsable FEATS item {item!r}", line_no)
        if key in pairs and pairs[key] != value:
            raise ConlluParseError(f"conflicting values for feature {key!r}", line_no)
        pairs[key] = value
    return tuple(sorted(pairs.items()))


def _is_basic_id(cell: str) -> bool:
    return cell.isdigit()


def parse_conllu(text: str, id: str, language_code: str, lowercase: bool = False) -> Treebank:
    """Parse CoNLL-U text into a Treebank of basic-node tokens.

    Multiword-token range lines (``1-2``) and empty nodes (``1.1``) are
    skipped.  Comment lines start with ``#``; blank lines end a sentence.
    ``lowercase`` folds forms and lemmas (off by default).
    """
    sentences: list[Sentence] = []
    current: list[Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            if current:
                sentences.append(Sentence(tuple(current)))
                current = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != _N_COLUMNS:
            raise ConlluParseError(f"expected {_N_COLUMNS} columns, got {len(cols)}", line_no)
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue  # surface range line or empty node
        if not _is_basic_id(tok_id):
            raise ConlluParseError(f"unparsable token ID {tok_id!r}", line_no)
        form, lemma, upos = cols[1], cols[2], cols[3]
        if not form or not lemma:
            raise ConlluParseError("empty FORM or LEMMA column", line_no)
        form = EMPTY_MARKER if form == "_" else form
        lemma = EMPTY_MARKER if lemma == "_" else lemma
        if lowercase:
            form = form.lower()
            lemma = lemma.lower()
        feats = _parse_feats(cols[5], line_no)
        current.append(Token(form=form, lemma=lemma, upos=upos, feats=feats))
    if current:
        sentences.append(Sentence(tuple(current)))
    if not sentences:
        raise ConlluParseError("no sentences found in input")
    return Treebank.build(id, language_code, tuple(sentences))


@dataclass(frozen=True)


class Sample:
    """Sentences drawn with replacement; the last one may be truncated."""

    sentences: tuple[Sentence, ...]
    n_tokens: int

    def tokens(self) -> Iterator[Token]:
        for sent in self.sentences:
            yield from sent.tokens


def bootstrap_sample(treebank: Treebank, target_tokens: int, rng: np.random.Generator) -> Sample:
    """Draw sentences uniformly with replacement until the token budget.

    The final sentence is truncated so the sample holds exactly
    ``target_tokens`` tokens; order inside each sentence is preserved.
    """
    if not treebank.sentences or treebank.n_tokens == 0:
        raise ValueError(f"treebank {treebank.id}: cannot sample from an empty treebank")
    if target_tokens < 1:
        raise ValueError("target_tokens must be >= 1")
    n_sent = len(treebank.sentences)
    drawn: list[Sentence] = []
    total = 0
    while total < target_tokens:
        sent = treebank.sentences[int(rng.integers(0, n_sent))]
        if total + len(sent) >= target_tokens:
            keep = target_tokens - total
            if keep < len(sent):
                sent = Sentence(sent.tokens[:keep])
            drawn.append(sent)
            total += keep
        else:
            drawn.append(sent)
            total += len(sent)
    return Sample(tuple(drawn), total)


_COMPRESS_LEVEL = 9

# Replacement strings must never contain the characters used to join
# tokens and sentences when serializing for compression.
_DELIMITERS = frozenset({" ", "\n", "\r", "\t"})
_DISTORT_MAX_RETRIES = 32


def plugin_entropy(counts: Mapping[str, int]) -> float:
    """Maximum-likelihood entropy in bits of a frequency table.

    No smoothing: probabilities are raw relative frequencies c_i / N.
    """
    if not counts:
        raise ValueError("empty frequency table")
    total = 0
    for item, c in counts.items():
        if c < 1:
            raise ValueError(f"count for {item!r} must be >= 1, got {c}")
        total += c
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log2(p)
    return max(h, 0.0)


def ttr(sample: Sample) -> float:
    """Distinct word forms divided by running tokens."""
    if sample.n_tokens == 0:
        raise ValueError("empty sample")
    types = {tok.form for tok in sample.tokens()}
    return len(types) / sample.n_tokens


def word_entropy(sample: Sample) -> float:
    """Entropy of the word-form frequency distribution."""
    return plugin_entropy(Counter(tok.form for tok in sample.tokens()))


def lemma_entropy(sample: Sample) -> float | None:
    """Entropy of the lemma frequency distribution; None without lemmas."""
    counts = Counter(tok.lemma for tok in sample.tokens() if tok.lemma)
    if not counts:
        return None
    return plugin_entropy(counts)


def msp(sample: Sample) -> float | None:
    """Mean size of paradigm: form types per lemma type.

    Only tokens carrying a lemma participate; None when there are none.
    """
    forms: set[str] = set()
    lemmas: set[str] = set()
    for tok in sample.tokens():
        if tok.lemma:
            forms.add(tok.form)
            lemmas.add(tok.lemma)
    if not lemmas:
        return None
    return len(forms) / len(lemmas)


def inflectional_synthesis(sample: Sample, count_values: bool = False) -> float | None:
    """Largest per-lemma union of inflectional feature keys in the sample.

    ``count_values=True`` switches the unit from feature keys to full
    key=value pairs.
    """
    per_lemma: dict[str, set] = {}
    for tok in sample.tokens():
        if not tok.lemma or not tok.feats:
            continue
        units = tok.feats if count_values else tuple(k for k, _ in tok.feats)
        per_lemma.setdefault(tok.lemma, set()).update(units)
    if not per_lemma:
        return None
    return float(max(len(s) for s in per_lemma.values()))


def feature_entropy(sample: Sample) -> float | None:
    """Entropy of the token-level Key=Value pair distribution (mfh).

    Each pair counts once per token carrying it, so frequent inflections
    weigh more than rare ones.
    """
    counts: Counter[str] = Counter()
    for tok in sample.tokens():
        if not tok.lemma or not tok.feats:
            continue
        for key, value in tok.feats:
            counts[f"{key}={value}"] += 1
    if not counts:
        return None
    return plugin_entropy(counts)


@dataclass(frozen=True)


class CharUnigramModel:
    """Character distribution estimated from the sample's word forms."""

    chars: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-9:
            raise ValueError("character probabilities must sum to 1")


def char_unigram_model(sample: Sample) -> CharUnigramModel:
    """Token-weighted character counts over forms, delimiters excluded."""
    counts: Counter[str] = Counter()
    for tok in sample.tokens():
        for ch in tok.form:
            if ch not in _DELIMITERS:
                counts[ch] += 1
    if not counts:
        # Degenerate sample whose forms are all delimiter characters.
        counts["x"] = 1
    chars = tuple(sorted(counts))
    total = sum(counts.values())
    probs = np.array([counts[c] / total for c in chars], dtype=float)
    return CharUnigramModel(chars, probs)


def _next_free(candidate: str, used: set[str], chars: tuple[str, ...]) -> str:
    """Deterministic successor scan over same-length strings.

    Treats the candidate as a base-N numeral over the sorted alphabet and
    increments until an unused string appears (wrapping around).
    """
    index = {c: i for i, c in enumerate(chars)}
    n = len(chars)
    digits = [index[c] for c in candidate]
    capacity = n ** len(digits)
    for _ in range(capacity):
        pos = len(digits) - 1
        while pos >= 0:
            digits[pos] = (digits[pos] + 1) % n
            if digits[pos] != 0:
                break
            pos -= 1
        cand = "".join(chars[d] for d in digits)
        if cand not in used:
            return cand
    raise RuntimeError("distortion alphabet exhausted for this word length")


def distort(sample: Sample, rng: np.random.Generator) -> list[list[str]]:
    """Replace every word type with a random same-length string.

    One injective type-to-replacement mapping is built per sample;
    replacement characters are drawn i.i.d. from the sample's character
    unigram model.  Every occurrence of a type is replaced identically, so
    the distorted text keeps the original type/token statistics while its
    within-word structure is destroyed.
    """
    model = char_unigram_model(sample)
    chars = np.array(model.chars)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for tok in sample.tokens():
        if tok.form in mapping:
            continue
        length = len(tok.form)
        if length == 0:
            mapping[tok.form] = ""
            continue
        replacement = None
        for _ in range(_DISTORT_MAX_RETRIES):
            draw = rng.choice(chars, size=length, p=model.probabilities)
            cand = "".join(draw)
            if cand not in used:
                replacement = cand
                break
        if replacement is None:
            replacement = _next_free(cand, used, model.chars)
            log.warning(
                "distort: retry budget exhausted for a length-%d type; "
                "used deterministic disambiguation",
                length,
            )
        mapping[tok.form] = replacement
        used.add(replacement)
    return [[mapping[tok.form] for tok in sent.tokens] for sent in sample.sentences]


def serialize_rows(rows: Iterable[Iterable[str]]) -> str:
    """Join tokens with single spaces and sentences with newlines."""
    return "\n".join(" ".join(row) for row in rows)


def serialize_sample(sample: Sample) -> str:
    return serialize_rows([tok.form for tok in sent.tokens] for sent in sample.sentences)


def compression_ratio(text: str) -> float:
    """Compressed size over raw size of the UTF-8 serialization."""
    data = text.encode("utf-8")
    if not data:
        raise ValueError("cannot compress empty text")
    return len(zlib.compress(data, _COMPRESS_LEVEL)) / len(data)


def word_structure_information(sample: Sample, rng: np.random.Generator) -> float:
    """Rise in compression ratio caused by destroying word structure (ws).

    Positive values mean the original words carried internal regularities
    the compressor could exploit; the more morphology, the bigger the rise.
    """
    original = serialize_sample(sample)
    distorted = serialize_rows(distort(sample, rng))
    return compression_ratio(distorted) - compression_ratio(original)


def extract_instances(sample: Sample) -> list[InflectionInstance]:
    """One instance per token with a lemma and features; exact duplicates
    collapse to one, but conflicting forms for a (lemma, bundle) all stay."""
    seen: dict[InflectionInstance, None] = {}
    for tok in sample.tokens():
        if not tok.lemma or not tok.form or not tok.feats:
            continue
        bundle = "|".join(f"{k}={v}" for k, v in sorted(tok.feats))
        inst = InflectionInstance(tok.lemma, bundle, tok.form)
        seen.setdefault(inst, None)
    return list(seen)
