"""CoNLL-U parsing into a columnar treebank, and the run manifest.

Only the columns needed for morphological statistics are kept: FORM,
LEMMA and FEATS, each interned into a table of distinct values with one
``int32`` ID per token, a FEATS cell as its canonical text (see
``_parse_feats``).  UPOS and the dependency columns are dropped.
A file is read once, in binary, line by line and never held whole; each
line is decoded on its own as it is parsed, so an error names the first
faulty line, and a malformed line before bad bytes is reported ahead of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

# Column "_" (no annotation) is stored as the empty string, in FORM, LEMMA
# and FEATS alike.  Measures that need a lemma skip tokens whose lemma is
# empty; form-only measures count every token.
EMPTY_MARKER = ""

_N_COLUMNS = 10


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based source line number, or
    ``None`` for a fault of the whole input."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Treebank:
    """Basic-node tokens as parallel ID arrays over interned tables.

    Token ``i`` has form ``forms[form_ids[i]]``, lemma ``lemmas[lemma_ids[i]]``
    and canonical FEATS text ``bundles[bundle_ids[i]]``.  In both of those
    tables ID 0 is the empty marker, so ``!= 0`` tests for an annotation.
    ``sentences`` holds each sentence's first token index.  Tables are object
    arrays of ``str`` in first-occurrence order, so equal input gives equal
    IDs and ``forms[ids]`` gathers the forms of many tokens at once.
    """

    id: str
    forms: np.ndarray
    lemmas: np.ndarray
    bundles: np.ndarray
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
    def form_lengths(self) -> np.ndarray:
        """Characters in each form-table entry, computed on first use."""
        return np.fromiter(map(len, self.forms), dtype=np.intp, count=len(self.forms))

    @cached_property
    def n_feature_keys(self) -> int:
        """Distinct keys over the feature-bundle table, computed on first use."""
        return len({pair.partition("=")[0] for b in self.bundles[1:] for pair in b.split("|")})


def _parse_feats(cell: str, line_no: int) -> str:
    """``cell``'s Key=Value pairs sorted on the key (which ends at the first
    ``=``) and joined by ``|``, so any order gives one text; ``_`` gives ""."""
    if cell == "_":
        return EMPTY_MARKER
    pairs: dict[str, str] = {}
    for item in cell.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ConlluParseError(f"unparsable FEATS item {item!r}", line_no)
        if key in pairs and pairs[key] != value:
            raise ConlluParseError(f"conflicting values for feature {key!r}", line_no)
        pairs[key] = value
    return "|".join(f"{k}={v}" for k, v in sorted(pairs.items()))


def parse_conllu(text: str, id: str, lowercase: bool = False) -> Treebank:
    """Parse CoNLL-U text into a Treebank of basic-node tokens.

    Multiword-token range lines (``1-2``) and empty nodes (``1.1``) are
    skipped; any other ID that is not ASCII digits is an error.  Comment
    lines start with ``#``; whitespace-only lines end a sentence.  A leading
    byte-order mark and CRLF line ends are accepted.
    ``lowercase`` folds forms and lemmas (off by default).
    """
    return _parse_lines(text.removeprefix("\ufeff").split("\n"), id, lowercase)


def parse_conllu_file(path: str, id: str, lowercase: bool = False) -> Treebank:
    """``parse_conllu`` over a UTF-8 file, read in binary and decoded one
    line at a time.  Only ``\\n`` ends a line, so a lone ``\\r`` stays inside
    its field."""
    with open(path, "rb") as f:
        return _parse_lines(_decode_lines(f), id, lowercase)


def _decode_lines(lines: Iterable[bytes]) -> Iterator[str]:
    """Decode each line on its own, the first without its BOM, so the first
    fault in line order is the one reported: a malformed line, or a line that
    is not UTF-8."""
    for line_no, line in enumerate(lines, start=1):
        try:
            yield line.decode("utf-8-sig" if line_no == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise ConlluParseError(f"invalid UTF-8 ({exc.reason})", line_no) from exc


def _parse_lines(lines: Iterable[str], id: str, lowercase: bool) -> Treebank:
    forms: dict[str, int] = {}
    lemmas: dict[str, int] = {EMPTY_MARKER: 0}
    bundles: dict[str, int] = {EMPTY_MARKER: 0}
    cells: dict[str, int] = {}  # FEATS cell -> bundle ID: each distinct cell is parsed once
    form_ids, lemma_ids, bundle_ids, boundaries = [], [], [], [0]
    for line_no, line in enumerate(lines, start=1):
        # A line may keep its line end: it stays in the last column, and strip() drops it.
        cols = line.split("\t")
        tok_id = cols[0]
        if len(cols) != _N_COLUMNS or not (tok_id.isascii() and tok_id.isdigit()):
            if not line.strip():
                if boundaries[-1] < len(form_ids):  # blank lines in a row end one sentence
                    boundaries.append(len(form_ids))
            elif not line.startswith("#"):
                if len(cols) != _N_COLUMNS:
                    raise ConlluParseError(f"expected {_N_COLUMNS} columns, got {len(cols)}", line_no)
                head, sep, tail = tok_id.partition("-" if "-" in tok_id else ".")
                if not (sep and tok_id.isascii() and head.isdigit() and tail.isdigit()):
                    raise ConlluParseError(f"unparsable token ID {tok_id!r}", line_no)
            continue  # a blank line, a comment, a range line N-M or an empty node N.M
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
        raise ConlluParseError("no sentences found in input")
    if boundaries[-1] == len(form_ids):
        boundaries.pop()  # the blank line after the last sentence
    tables = (np.fromiter(t, dtype=object, count=len(t)) for t in (forms, lemmas, bundles))
    ids = (np.array(col, dtype=np.int32) for col in (form_ids, lemma_ids, bundle_ids, boundaries))
    return Treebank(id, *tables, *ids)


def read_text(path: str) -> str:
    """A UTF-8 file's text without its BOM; a byte that is not UTF-8 raises a
    ``ValueError`` that names the file."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    """Read a manifest TSV of (treebank id, language code, conllu path).

    Blank lines and ``#`` comments are skipped; relative paths resolve
    against the manifest's own directory.  Every output keys its rows by
    treebank id, so an id listed twice is rejected, as is an empty cell or
    an id starting with ``#``, which an output TSV reads as metadata.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries: list[tuple[str, str, str]] = []
    seen: dict[str, int] = {}  # treebank id -> its manifest line
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ValueError(f"{path}: line {line_no}: expected 3 tab-separated columns")
        tb_id, lang, tb_path = (c.strip() for c in cols)
        for name, cell in (("treebank id", tb_id), ("language", lang), ("path", tb_path)):
            if not cell:
                raise ValueError(f"{path}: line {line_no}: empty {name}")
        if tb_id.startswith("#"):
            raise ValueError(f"{path}: line {line_no}: treebank id {tb_id!r} starts with '#'")
        if tb_id in seen:
            raise ValueError(
                f"{path}: line {line_no}: treebank id {tb_id!r} already on line {seen[tb_id]}"
            )
        seen[tb_id] = line_no
        entries.append((tb_id, lang, os.path.join(base, tb_path)))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries
