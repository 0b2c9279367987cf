"""CoNLL-U parsing into a columnar treebank, and treebank-level exclusion rules.

Only the columns needed for morphological statistics are kept: FORM,
LEMMA and FEATS, each interned into a table of distinct values with one
``int32`` ID per token.  UPOS and the dependency columns are dropped.
Files are streamed line by line, never held whole, in text mode.  Only
when a file is not valid UTF-8 is it parsed again from the start, decoding
each line on its own, so the error names the first faulty line: a
malformed line before the bad bytes is reported ahead of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator

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

    @cached_property
    def form_array(self) -> np.ndarray:
        """``forms`` as an object array, to gather a sample's forms in one step."""
        return np.array(self.forms, dtype=object)

    @cached_property
    def form_lengths(self) -> np.ndarray:
        """Characters in each form-table entry, computed on first use."""
        return np.fromiter(map(len, self.forms), dtype=np.intp, count=len(self.forms))

    @cached_property
    def form_chars(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The forms' sorted distinct code points, the index into them of each character
        of the forms joined in table order, and each form's offset in that join."""
        codes = np.frombuffer("".join(self.forms).encode("utf-32-le"), dtype=np.uint32)
        alphabet, char_ids = np.unique(codes, return_inverse=True)
        return alphabet, char_ids, np.cumsum(self.form_lengths) - self.form_lengths

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


def parse_conllu(text: str, id: str, lowercase: bool = False) -> Treebank:
    """Parse CoNLL-U text into a Treebank of basic-node tokens.

    Multiword-token range lines (``1-2``) and empty nodes (``1.1``) are
    skipped.  Comment lines start with ``#``; blank lines end a sentence.
    A leading byte-order mark and CRLF line ends are accepted.
    ``lowercase`` folds forms and lemmas (off by default).
    """
    return _parse_lines(text.removeprefix("\ufeff").split("\n"), id, lowercase)


def parse_conllu_file(path: str, id: str, lowercase: bool = False) -> Treebank:
    """``parse_conllu`` over a UTF-8 file, read one line at a time."""
    try:
        # newline="\n": only "\n" ends a line, so a lone "\r" stays inside its field.
        with open(path, encoding="utf-8-sig", newline="\n") as f:
            return _parse_lines(f, id, lowercase)
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            return _parse_lines(_decode_lines(f), id, lowercase)


def _decode_lines(lines: Iterable[bytes]) -> Iterator[str]:
    """Decode each line on its own, so the first fault in line order is the
    one reported: a malformed line, or a line that is not UTF-8."""
    for line_no, line in enumerate(lines, start=1):
        try:
            yield line.decode("utf-8-sig" if line_no == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise ConlluParseError(f"invalid UTF-8 ({exc.reason})", line_no) from exc


def _parse_lines(lines: Iterable[str], id: str, lowercase: bool) -> Treebank:
    forms: dict[str, int] = {}
    lemmas: dict[str, int] = {EMPTY_MARKER: 0}
    bundles: dict[tuple[tuple[str, str], ...], int] = {(): 0}
    cells: dict[str, int] = {}  # FEATS cell -> bundle ID: each distinct cell is parsed once
    form_ids, lemma_ids, bundle_ids, boundaries = [], [], [], [0]
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            if boundaries[-1] < len(form_ids):  # blank lines in a row end one sentence
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
    if boundaries[-1] == len(form_ids):
        boundaries.pop()  # the blank line after the last sentence
    ids = (np.array(col, dtype=np.int32) for col in (form_ids, lemma_ids, bundle_ids, boundaries))
    return Treebank(id, tuple(forms), tuple(lemmas), tuple(bundles), *ids)


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    """Read a manifest TSV of (treebank id, language code, conllu path).

    Blank lines and ``#`` comments are skipped; relative paths resolve
    against the manifest's own directory.  Every output keys its rows by
    treebank id, so an id listed twice is rejected, as is an empty cell.
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
            for name, cell in (("treebank id", tb_id), ("language", lang), ("path", tb_path)):
                if not cell:
                    raise ValueError(f"{path}: line {line_no}: empty {name}")
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
class Exclusion:
    reason: str
    measures: tuple[str, ...]


def apply_exclusions(
    treebank: Treebank, min_feature_keys: int, script_exclude: frozenset[str]
) -> tuple[Exclusion, ...]:
    """The exclusion records of one treebank, empty when no rule applies:
    fewer than ``min_feature_keys`` feature keys, or an id in ``script_exclude``.

    Each record names a machine-readable reason and the affected measures;
    an excluded treebank remains eligible for all other measures.
    """
    reasons: list[Exclusion] = []
    if treebank.n_feature_keys < min_feature_keys:
        reasons.append(Exclusion(REASON_NO_MORPH, FEATURE_MEASURES))
    if treebank.id in script_exclude:
        reasons.append(Exclusion(REASON_NON_ALPHABETIC, SCRIPT_MEASURES))
    return tuple(reasons)
