"""CoNLL-U parsing and treebank-level exclusion rules.

Only the columns needed for morphological statistics are kept: FORM,
LEMMA, UPOS and FEATS.  Dependency columns are ignored entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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
        raise ConlluParseError("no sentences found in input", 0)
    return Treebank.build(id, language_code, tuple(sentences))


def parse_conllu_file(path: str, id: str, language_code: str, lowercase: bool = False) -> Treebank:
    with open(path, encoding="utf-8-sig") as f:
        return parse_conllu(f.read(), id, language_code, lowercase=lowercase)


def read_manifest(path: str) -> list[tuple[str, str, str]]:
    """Read a manifest TSV of (treebank id, language code, conllu path).

    Blank lines and ``#`` comments are skipped; relative paths resolve
    against the manifest's own directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries: list[tuple[str, str, str]] = []
    with open(path, encoding="utf-8-sig") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ValueError(f"{path}: line {line_no}: expected 3 tab-separated columns")
            tb_id, lang, tb_path = (c.strip() for c in cols)
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
    feature_measures: tuple[str, ...] = FEATURE_MEASURES
    script_measures: tuple[str, ...] = SCRIPT_MEASURES


@dataclass(frozen=True)
class Exclusion:
    treebank_id: str
    reason: str
    measures: tuple[str, ...]


def apply_exclusions(
    treebanks: list[Treebank], rules: ExclusionConfig
) -> tuple[list[Treebank], list[tuple[Treebank, tuple[Exclusion, ...]]]]:
    """Partition treebanks into fully-eligible and partially-excluded.

    Excluded treebanks keep their Exclusion records (machine-readable
    reason plus the affected measure names); they remain eligible for all
    other measures.
    """
    kept: list[Treebank] = []
    excluded: list[tuple[Treebank, tuple[Exclusion, ...]]] = []
    for tb in treebanks:
        reasons: list[Exclusion] = []
        if tb.n_feature_keys < rules.min_feature_keys:
            reasons.append(Exclusion(tb.id, REASON_NO_MORPH, rules.feature_measures))
        if tb.id in rules.script_excluded_ids:
            reasons.append(Exclusion(tb.id, REASON_NON_ALPHABETIC, rules.script_measures))
        if reasons:
            excluded.append((tb, tuple(reasons)))
        else:
            kept.append(tb)
    return kept, excluded


def unavailable_measures(exclusions: tuple[Exclusion, ...]) -> frozenset[str]:
    """Union of measure names an excluded treebank must not be scored on."""
    out: set[str] = set()
    for exc in exclusions:
        out.update(exc.measures)
    return frozenset(out)
