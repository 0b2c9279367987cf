"""Sample-level complexity measures.

Seven measures are computed per bootstrap sample: type/token ratio (ttr),
information in word structure (ws), word entropy (wh), lemma entropy (lh),
mean size of paradigm (msp), inflectional synthesis (is) and morphological
feature entropy (mfh).  The eighth measure, negative inflection accuracy
(neg_ia), lives in the ``inflection`` module because it is trained once per
treebank rather than averaged over repetitions.

Measures that need lemma or feature annotation return ``None`` (the
unavailable marker) instead of a value when the sample carries no usable
annotation; downstream analysis drops those cells rather than treating
them as zeros.

Every measure counts over the treebank's interned ID arrays at the
sample's token indices (``np.bincount``/``np.unique``); Python loops run
only over the distinct feature bundles or word types of a sample.  ``ws``
takes its character model from the sample text it compresses.
``np.unique`` always gets a ``return_*`` argument: without one, numpy 2.4
imports ``numpy.ma`` to check for a masked array.
"""

from __future__ import annotations

import logging
import zlib
from typing import Iterable

import numpy as np

from .conllu import Treebank
from .sampling import MeasureFn, Sample

log = logging.getLogger(__name__)

SAMPLE_MEASURES = ("ttr", "ws", "wh", "lh", "msp", "is", "mfh")
ALL_MEASURES = SAMPLE_MEASURES + ("neg_ia",)

# The measures each treebank exclusion rule removes, by reason.  A treebank
# excluded for a reason keeps every measure not listed under it.
EXCLUDED_MEASURES = {
    "no-morph-features": ("is", "mfh", "neg_ia"),
    "non-alphabetic-script": ("ws",),
}

# One fixed deflate-class setting; ws values are only comparable when every
# text went through the same compressor.  Recorded in run metadata.
_COMPRESS_LEVEL = 9
COMPRESSOR_SETTING = f"zlib-level{_COMPRESS_LEVEL}"

# Replacement strings must never contain the characters used to join
# tokens and sentences when serializing for compression.
_DELIMITER_CODES = np.array([ord(c) for c in " \n\r\t"], dtype=np.uint32)
_DISTORT_MAX_RETRIES = 32
# ws overlaps its two compressions on texts of at least this many
# characters.  Starting and joining the helper thread costs ~0.4 ms, which
# the overlap repaid only from ~13,000 characters (2,000 tokens) up on a
# 2-vCPU Xeon; at 300 tokens it doubled the time of a ws call.
_OVERLAP_MIN_CHARS = 1 << 15


def plugin_entropy(counts: np.ndarray) -> float:
    """Maximum-likelihood entropy in bits of a vector of counts.

    No smoothing: probabilities are raw relative frequencies c_i / N.
    """
    counts = np.asarray(counts)
    if not len(counts):
        raise ValueError("empty frequency table")
    if counts.min() < 1:
        raise ValueError(f"counts must be >= 1, got {counts.min()}")
    p = counts / counts.sum()
    return max(0.0, float(-(p * np.log2(p)).sum()))


def _counts(ids: np.ndarray) -> np.ndarray:
    """Occurrences of each distinct ID, in ID order."""
    counts = np.bincount(ids)
    return counts[counts > 0]


def _lemmatized(sample: Sample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Form, lemma and bundle IDs of the sample tokens that carry a lemma."""
    tb = sample.treebank
    ids = [col[sample.tokens] for col in (tb.form_ids, tb.lemma_ids, tb.bundle_ids)]
    keep = ids[1] != 0
    return ids[0][keep], ids[1][keep], ids[2][keep]


def ttr(sample: Sample) -> float:
    """Distinct word forms divided by running tokens."""
    return len(_counts(sample.treebank.form_ids[sample.tokens])) / sample.n_tokens


def word_entropy(sample: Sample) -> float:
    """Entropy of the word-form frequency distribution."""
    return plugin_entropy(_counts(sample.treebank.form_ids[sample.tokens]))


def lemma_entropy(sample: Sample) -> float | None:
    """Entropy of the lemma frequency distribution; None without lemmas."""
    _, lemmas, _ = _lemmatized(sample)
    return plugin_entropy(_counts(lemmas)) if len(lemmas) else None


def msp(sample: Sample) -> float | None:
    """Mean size of paradigm: form types per lemma type.

    Only tokens carrying a lemma participate; None when there are none.
    """
    forms, lemmas, _ = _lemmatized(sample)
    if not len(lemmas):
        return None
    return len(_counts(forms)) / len(_counts(lemmas))


def inflectional_synthesis(sample: Sample, count_values: bool = False) -> float | None:
    """Largest per-lemma union of inflectional feature keys in the sample.

    ``count_values=True`` switches the unit from feature keys to full
    key=value pairs.
    """
    _, lemmas, bundles = _lemmatized(sample)
    keep = np.flatnonzero(bundles != 0)
    if not len(keep):
        return None
    by_lemma = keep[np.argsort(lemmas[keep])]  # tokens with features, grouped by lemma
    table = sample.treebank.bundles
    used, row = np.unique(bundles[by_lemma], return_inverse=True)
    pairs = [(r, pair) for r, b in enumerate(used.tolist()) for pair in table[b].split("|")]
    units = [pair if count_values else pair.partition("=")[0] for _, pair in pairs]
    names, col = np.unique(units, return_inverse=True)
    matrix = np.zeros((len(used), len(names)), dtype=bool)  # used bundle x unit
    matrix[[r for r, _ in pairs], col] = True
    starts = np.flatnonzero(np.diff(lemmas[by_lemma], prepend=-1))
    per_lemma = np.logical_or.reduceat(matrix[row], starts)
    return float(per_lemma.sum(axis=1).max())


def feature_entropy(sample: Sample) -> float | None:
    """Entropy of the token-level Key=Value pair distribution (mfh).

    Each pair counts once per token carrying it, so frequent inflections
    weigh more than rare ones.  As for ``is``, only tokens that carry a
    lemma count.
    """
    _, _, bundles = _lemmatized(sample)
    per_bundle = np.bincount(bundles[bundles != 0])
    counts: dict[str, int] = {}
    for b in np.flatnonzero(per_bundle).tolist():
        for pair in sample.treebank.bundles[b].split("|"):
            counts[pair] = counts.get(pair, 0) + int(per_bundle[b])
    return plugin_entropy(list(counts.values())) if counts else None


def char_unigram_model(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The ascending uint32 code points of ``text``, a serialized sample,
    and their relative frequencies, delimiters excluded: the forms'
    characters weighted by token count."""
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    alphabet, counts = np.unique(codes, return_counts=True)
    keep = ~np.isin(alphabet, _DELIMITER_CODES)
    if not keep.any():
        # Degenerate sample whose forms are all delimiter characters.
        return np.array([ord("x")], dtype=np.uint32), np.ones(1)
    counts = counts[keep]
    return alphabet[keep], counts / counts.sum()


def _next_free(candidate: str, used: set[str], chars: str) -> str:
    """Deterministic successor scan over same-length strings.

    Treats the candidate as a base-N numeral over the sorted alphabet
    ``chars`` and increments until an unused string appears (wrapping around).
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


def distort(sample: Sample, rng: np.random.Generator, text: str) -> list[list[str]]:
    """Replace every word type with a random same-length string.

    One injective type-to-replacement mapping is built per sample;
    replacement characters are drawn i.i.d. from the character unigram
    model of ``text``, the sample's serialization.  Every occurrence of a
    type is replaced identically, so the distorted text keeps the original
    type/token statistics while its within-word structure is destroyed.

    Each round draws the characters of every type still unmapped in one
    call; in first-occurrence order, a type keeps its draw unless an
    earlier type already holds that string.  After the retry budget the
    rest take the next free string.
    """
    ids = sample.treebank.form_ids[sample.tokens]
    types, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    codes, probabilities = char_unigram_model(text)
    lengths = sample.treebank.form_lengths[types]
    replacement = [""] * len(types)
    used: set[str] = set()
    order = np.argsort(first)  # types in first-occurrence order
    pending = order[lengths[order] > 0].tolist()
    for _ in range(_DISTORT_MAX_RETRIES):
        if not pending:
            break
        ends = np.cumsum(lengths[pending]).tolist()
        draw = rng.choice(len(codes), size=ends[-1], p=probabilities)
        drawn = codes[draw].tobytes().decode("utf-32-le")
        collided = []
        for k, start, end in zip(pending, [0] + ends, ends):
            cand = replacement[k] = drawn[start:end]
            if cand in used:
                collided.append(k)
            else:
                used.add(cand)
        pending = collided
    chars = codes.tobytes().decode("utf-32-le")
    for k in pending:
        replacement[k] = _next_free(replacement[k], used, chars)
        used.add(replacement[k])
        log.warning(
            "distort: retry budget exhausted for a length-%d type; "
            "used deterministic disambiguation",
            lengths[k],
        )
    return sample.rows(np.array(replacement, dtype=object)[inverse].tolist())


def serialize_rows(rows: Iterable[Iterable[str]]) -> str:
    """Join tokens with single spaces and sentences with newlines."""
    return "\n".join([" ".join(row) for row in rows])


def serialize_sample(sample: Sample) -> str:
    tb = sample.treebank
    return serialize_rows(sample.rows(tb.forms[tb.form_ids[sample.tokens]].tolist()))


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
    zlib releases the GIL, so on a long text a helper thread compresses the
    original while this thread distorts the sample.
    """
    original = serialize_sample(sample)
    if len(original) < _OVERLAP_MIN_CHARS:
        distorted = serialize_rows(distort(sample, rng, original))
        return compression_ratio(distorted) - compression_ratio(original)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        original_ratio = helper.submit(compression_ratio, original)
        distorted = serialize_rows(distort(sample, rng, original))
        return compression_ratio(distorted) - original_ratio.result()


def sample_measure_functions(names: Iterable[str], is_count_values: bool) -> dict[str, MeasureFn]:
    """The (sample, rng) callable of each of ``names``, a subset of ``SAMPLE_MEASURES``."""
    registry: dict[str, MeasureFn] = {
        "ttr": lambda s, rng: ttr(s),
        "ws": word_structure_information,
        "wh": lambda s, rng: word_entropy(s),
        "lh": lambda s, rng: lemma_entropy(s),
        "msp": lambda s, rng: msp(s),
        "is": lambda s, rng: inflectional_synthesis(s, count_values=is_count_values),
        "mfh": lambda s, rng: feature_entropy(s),
    }
    return {name: registry[name] for name in names}


def apply_exclusions(
    treebank: Treebank, min_feature_keys: int, script_exclude: frozenset[str]
) -> tuple[str, ...]:
    """The reasons, keys of ``EXCLUDED_MEASURES``, that exclude measures of
    one treebank: fewer than ``min_feature_keys`` feature keys, or an id in
    ``script_exclude``.  Empty when no rule applies.
    """
    reasons: list[str] = []
    if treebank.n_feature_keys < min_feature_keys:
        reasons.append("no-morph-features")
    if treebank.id in script_exclude:
        reasons.append("non-alphabetic-script")
    return tuple(reasons)
