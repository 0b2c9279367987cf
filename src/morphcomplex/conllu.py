"""CoNLL-U parsing into a columnar treebank, and treebank-level exclusion rules.

Only the columns needed for morphological statistics are kept: FORM,
LEMMA and FEATS, each interned into a table of distinct values with one
``int32`` ID per token.  UPOS and the dependency columns are dropped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

# Column "_" (no annotation) is stored as the empty string.  Measures that
# need a lemma skip tokens whose lemma is empty; form-only measures count
# every token.
EMPTY_MARKER = ""

_N_COLUMNS = 10

# Measure names affected by each exclusion rule.  Treebanks excluded for a
# reason stay usable for every measure not listed under that reason.
FEATURE_MEASURES = ("is", "mfh", "neg_ia")
SCRIPT_MEASURES = ("ws",)

REASON_NO_MORPH = "no-morph-features"
REASON_NON_ALPHABETIC = "non-alphabetic-script"


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based source line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Treebank:
    """Basic-node tokens as parallel ID arrays over interned tables.

    Token ``i`` has form ``forms[form_ids[i]]``, lemma ``lemmas[lemma_ids[i]]``
    and sorted Key=Value pairs ``bundles[bundle_ids[i]]``.  Lemma ID 0 is the
    empty marker and bundle ID 0 the empty bundle, so ``!= 0`` tests for an
    annotation.  ``sentences`` holds each sentence's first token index.
    Tables are in first-occurrence order, so equal input gives equal IDs.
    """

    id: str
    language_code: str
    forms: tuple[str, ...]
    lemmas: tuple[str, ...]
    bundles: tuple[tuple[tuple[str, str], ...], ...]
    form_ids: np.ndarray
    lemma_ids: np.ndarray
    bundle_ids: np.ndarray
    sentences: np.ndarray

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Treebank) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )

    @property
    def n_tokens(self) -> int:
        return len(self.form_ids)

    @cached_property
    def sentence_lengths(self) -> np.ndarray:
        """Tokens per sentence, computed on first use."""
        return np.diff(self.sentences, append=self.n_tokens)

    @cached_property
    def sentence_length_list(self) -> list[int]:
        """``sentence_lengths`` as Python ints, for fast scalar lookups."""
        return self.sentence_lengths.tolist()

    @property
    def n_feature_keys(self) -> int:
        return len({key for bundle in self.bundles for key, _ in bundle})


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


def parse_conllu(text: str, id: str, language_code: str, lowercase: bool = False) -> Treebank:
    """Parse CoNLL-U text into a Treebank of basic-node tokens.

    Multiword-token range lines (``1-2``) and empty nodes (``1.1``) are
    skipped.  Comment lines start with ``#``; blank lines end a sentence.
    A leading byte-order mark and CRLF line ends are accepted.
    ``lowercase`` folds forms and lemmas (off by default).
    """
    forms: dict[str, int] = {}
    lemmas: dict[str, int] = {EMPTY_MARKER: 0}
    bundles: dict[tuple[tuple[str, str], ...], int] = {(): 0}
    cells: dict[str, int] = {}  # FEATS cell -> bundle ID: each distinct cell is parsed once
    form_ids, lemma_ids, bundle_ids, boundaries = [], [], [], [0]
    for line_no, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            boundaries.append(len(form_ids))
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != _N_COLUMNS:
            raise ConlluParseError(f"expected {_N_COLUMNS} columns, got {len(cols)}", line_no)
        tok_id = cols[0]
        if not tok_id.isdigit():
            if "-" in tok_id or "." in tok_id:
                continue  # surface range line or empty node
            raise ConlluParseError(f"unparsable token ID {tok_id!r}", line_no)
        form, lemma, feats = cols[1], cols[2], cols[5]
        if not form or not lemma:
            raise ConlluParseError("empty FORM or LEMMA column", line_no)
        form = EMPTY_MARKER if form == "_" else form
        lemma = EMPTY_MARKER if lemma == "_" else lemma
        if lowercase:
            form = form.lower()
            lemma = lemma.lower()
        bundle = cells.get(feats)
        if bundle is None:
            bundle = cells[feats] = bundles.setdefault(_parse_feats(feats, line_no), len(bundles))
        form_ids.append(forms.setdefault(form, len(forms)))
        lemma_ids.append(lemmas.setdefault(lemma, len(lemmas)))
        bundle_ids.append(bundle)
    if not form_ids:
        raise ConlluParseError("no sentences found in input", 0)
    starts = np.unique(boundaries)
    columns = (form_ids, lemma_ids, bundle_ids, starts[starts < len(form_ids)])
    ids = (np.array(col, dtype=np.int32) for col in columns)
    return Treebank(id, language_code, tuple(forms), tuple(lemmas), tuple(bundles), *ids)


def parse_conllu_file(path: str, id: str, language_code: str, lowercase: bool = False) -> Treebank:
    # newline="": parse_conllu splits lines itself, so a lone "\r" stays inside its field.
    with open(path, encoding="utf-8", newline="") as f:
        return parse_conllu(f.read(), id, language_code, lowercase=lowercase)


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    """Read a manifest TSV of (treebank id, language code, conllu path).

    Blank lines and ``#`` comments are skipped; relative paths resolve
    against the manifest's own directory.  Every output keys its rows by
    treebank id, so an id listed twice is rejected.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries: list[tuple[str, str, str]] = []
    seen: dict[str, int] = {}  # treebank id -> its manifest line
    with open(path, encoding="utf-8-sig") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ValueError(f"{path}: line {line_no}: expected 3 tab-separated columns")
            tb_id, lang, tb_path = (c.strip() for c in cols)
            if tb_id in seen:
                raise ValueError(
                    f"{path}: line {line_no}: treebank id {tb_id!r} already on line {seen[tb_id]}"
                )
            seen[tb_id] = line_no
            if not os.path.isabs(tb_path):
                tb_path = os.path.join(base, tb_path)
            entries.append((tb_id, lang, tb_path))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


@dataclass(frozen=True)
class ExclusionConfig:
    """Rules deciding which treebanks are excluded from which measures."""

    min_feature_keys: int = 3
    script_excluded_ids: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class Exclusion:
    reason: str
    measures: tuple[str, ...]


def apply_exclusions(treebank: Treebank, rules: ExclusionConfig) -> tuple[Exclusion, ...]:
    """The exclusion records of one treebank, empty when no rule applies.

    Each record names a machine-readable reason and the affected measures;
    an excluded treebank remains eligible for all other measures.
    """
    reasons: list[Exclusion] = []
    if treebank.n_feature_keys < rules.min_feature_keys:
        reasons.append(Exclusion(REASON_NO_MORPH, FEATURE_MEASURES))
    if treebank.id in rules.script_excluded_ids:
        reasons.append(Exclusion(REASON_NON_ALPHABETIC, SCRIPT_MEASURES))
    return tuple(reasons)
