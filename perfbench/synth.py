"""Deterministic synthetic CoNLL-U treebanks and a WALS CSV for the benchmark.

Token structure is drawn from generators keyed by each treebank's spec;
spellings and WALS values from one generator seeded by the caller, so the
same seed always gives byte-identical files.  Per-token draws are made in
bulk; only string assembly runs in a Python loop.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

LATIN = "abcdefghijklmnoprstuvz"
GREEK = "αβγδεζηθικλμνξοπρστυφχψω"
IRREGULAR_PATTERNS = 16

# Feature keys with their value inventories, nominal first, verbal last.
KEY_VALUES = {
    "Case": ("Nom", "Acc", "Gen", "Dat", "Loc", "Ins", "Abl", "Voc"),
    "Number": ("Sing", "Plur", "Dual"),
    "Gender": ("Masc", "Fem", "Neut"),
    "Definite": ("Def", "Ind"),
    "Poss": ("Yes", "No"),
    "Degree": ("Pos", "Cmp", "Sup"),
    "Person": ("1", "2", "3"),
    "Tense": ("Past", "Pres", "Fut"),
    "Mood": ("Ind", "Imp", "Sub", "Cnd"),
    "Aspect": ("Perf", "Imp"),
    "Voice": ("Act", "Pass"),
    "Polarity": ("Pos", "Neg"),
    "Evident": ("Fh", "Nfh"),
}
NOMINAL_KEYS = ("Case", "Number", "Gender", "Definite", "Poss", "Degree")
VERBAL_KEYS = ("Person", "Number", "Tense", "Mood", "Aspect", "Voice", "Polarity", "Evident")

# The 28 WALS morphology feature ids the program regresses on.
WALS_FEATURES = (
    "22A", "26A", "27A", "28A", "29A", "30A", "33A", "34A", "37A", "38A",
    "49A", "51A", "57A", "59A", "65A", "66A", "67A", "69A", "70A", "73A",
    "74A", "75A", "78A", "94A", "101A", "102A", "111A", "112A",
)


@dataclass(frozen=True)
class TreebankSpec:
    """Shape of one synthetic treebank."""

    id: str
    lang: str
    n_tokens: int
    n_lemmas: int
    zipf: float             # exponent of the lemma frequency law
    nominal_keys: int       # feature keys on nouns (0 = no features)
    verbal_keys: int        # feature keys on verbs
    cells: int              # paradigm cells per part of speech (at most)
    classes: int            # inflection classes, told apart by the lemma ending
    irregular: float        # share of (lemma, cell) pairs with an irregular form
    sent_len: float         # mean sentence length in tokens
    alphabet: str = LATIN


def _words(rng: np.random.Generator, alphabet: str, count: int, lo: int, hi: int) -> list[str]:
    """``count`` distinct random words with lengths in [lo, hi]."""
    letters = np.array(list(alphabet))
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        need = count - len(out)
        lengths = rng.integers(lo, hi + 1, size=need)
        chars = rng.integers(0, len(letters), size=int(lengths.sum()))
        pos = 0
        for n in lengths:
            w = "".join(letters[chars[pos:pos + n]])
            pos += n
            if w not in seen:
                seen.add(w)
                out.append(w)
    return out


class _Paradigms:
    """Forms of every (lemma, cell) pair of one part of speech, built on first use.

    ``structure`` decides the cells, the irregular patterns' shapes and which
    pattern each irregular pair takes; ``spelling`` draws every affix.
    """

    def __init__(self, spec: TreebankSpec, keys: tuple[str, ...], structure: np.random.Generator,
                 spelling: np.random.Generator):
        self.keys = keys
        if keys:
            sizes = [len(KEY_VALUES[k]) for k in keys]
            total = int(np.prod(sizes))
            flat = structure.choice(total, size=min(spec.cells, total), replace=False)
            self.bundles = []
            for code in sorted(int(c) for c in flat):
                pairs = []
                for k, size in zip(keys, sizes):
                    pairs.append(f"{k}={KEY_VALUES[k][code % size]}")
                    code //= size
                self.bundles.append("|".join(sorted(pairs)))
        else:
            self.bundles = ["_"]
        # One suffix per (inflection class, cell); class 0 also drops the
        # lemma's final letter, so two edit-script shapes occur.
        self.suffixes = np.array(
            _words(spelling, spec.alphabet, spec.classes * len(self.bundles), 1, 3), dtype=object
        ).reshape(spec.classes, len(self.bundles))
        # Irregular forms take one of a fixed number of (prefix, drop, ending)
        # patterns picked at random per (lemma, cell): they cannot be
        # predicted from the lemma, and because the pool is small next to the
        # number of irregular forms, nearly every pattern occurs.
        prefixes = _words(spelling, spec.alphabet, IRREGULAR_PATTERNS, 1, 2)
        endings = _words(spelling, spec.alphabet, IRREGULAR_PATTERNS, 2, 4)
        kinds = structure.integers(0, 3, size=IRREGULAR_PATTERNS)
        self.irregular_patterns = [
            (prefixes[i] if kinds[i] == 0 else "", int(kinds[i] == 1), endings[i])
            for i in range(IRREGULAR_PATTERNS)
        ]
        self.structure = structure
        self.forms: dict[tuple[int, int], str] = {}

    def form(self, lemma_index: int, lemma: str, lemma_class: int, cell: int, irregular: bool) -> str:
        key = (lemma_index, cell)
        found = self.forms.get(key)
        if found is None:
            if not self.keys:
                found = lemma
            elif irregular:
                prefix, drop, ending = self.irregular_patterns[int(self.structure.integers(IRREGULAR_PATTERNS))]
                found = prefix + lemma[: len(lemma) - drop] + ending
            else:
                stem = lemma[:-1] if lemma_class == 0 else lemma
                found = stem + self.suffixes[lemma_class, cell]
            self.forms[key] = found
        return found


def _lemmas(spelling: np.random.Generator, alphabet: str, classes: np.ndarray, n_classes: int) -> list[str]:
    """Distinct lemmas whose final letter encodes their inflection class."""
    stems = _words(spelling, alphabet, len(classes), 2, 7)
    finals = [[c for i, c in enumerate(alphabet) if i % n_classes == k] for k in range(n_classes)]
    picks = spelling.integers(0, 1 << 30, size=len(classes))
    return [
        stem + finals[k][pick % len(finals[k])]
        for stem, k, pick in zip(stems, classes.tolist(), picks.tolist())
    ]


FUNCTION_SHARE = 0.3
_EMPTY_NODE = "\t_\t_\t_\t_\t_\t_\t_\t_\t_"


def treebank_text(spec: TreebankSpec, spelling: np.random.Generator) -> str:
    """Render one treebank as CoNLL-U text.

    The token structure (sentence lengths; each token's lemma rank, paradigm
    cell, regular or irregular form and irregular pattern) comes from a
    generator keyed by the spec alone; ``spelling`` draws every lemma, affix
    and function word.  Every seed then gives the program the same amount
    of work: the same sentences, the same −IA instance and edit-script class
    counts, and, because the program's sampling streams consume one draw per
    sentence, the same −IA hyperparameter draws.

    Sentences carry ``# sent_id``/``# text`` comments; every 7th sentence
    starts with a multiword range line and every 11th has an empty node, so
    the parser's skip paths run.
    """
    n = spec.n_tokens
    structure = np.random.default_rng([zlib.crc32(spec.id.encode("utf-8")), n])
    tables = [
        ("NOUN", _Paradigms(spec, tuple(NOMINAL_KEYS[: spec.nominal_keys]), structure, spelling)),
        ("VERB", _Paradigms(spec, tuple(VERBAL_KEYS[: spec.verbal_keys]), structure, spelling)),
    ]
    lemma_classes = structure.integers(0, spec.classes, size=spec.n_lemmas)
    lemmas = _lemmas(spelling, spec.alphabet, lemma_classes, spec.classes)
    function_words = _words(spelling, spec.alphabet, 24, 1, 3)

    ranks = np.arange(1, spec.n_lemmas + 1, dtype=float)
    p = ranks ** -spec.zipf
    lemma_idx = structure.choice(spec.n_lemmas, size=n, p=p / p.sum()).tolist()
    cell_draw = structure.random(n).tolist()
    irregular = (structure.random(n) < spec.irregular).tolist()
    is_function = (structure.random(n) < FUNCTION_SHARE).tolist()
    function_idx = structure.integers(0, len(function_words), size=n).tolist()
    lengths = (structure.poisson(spec.sent_len - 1, size=n // 2 + 1) + 1).tolist()

    # Irregularity is a property of the (lemma, cell) pair, decided by its
    # first token: the per-token draw only matters before the form is cached.
    lines: list[str] = []
    pos = 0
    sent_no = 0
    while pos < n:
        length = min(lengths[sent_no], n - pos)
        sent_no += 1
        rows: list[str] = []
        forms: list[str] = []
        for k in range(length):
            t = pos + k
            if is_function[t]:
                form = function_words[function_idx[t]]
                rows.append(f"{k + 1}\t{form}\t{form}\tADP\t_\t_\t_\t_\t_\t_")
            else:
                li = lemma_idx[t]
                upos, table = tables[li & 1]
                cell = int(cell_draw[t] * cell_draw[t] * len(table.bundles))
                lemma = lemmas[li]
                form = table.form(li, lemma, int(lemma_classes[li]), cell, irregular[t])
                rows.append(f"{k + 1}\t{form}\t{lemma}\t{upos}\t_\t{table.bundles[cell]}\t_\t_\t_\t_")
            forms.append(form)
        pos += length
        lines.append(f"# sent_id = {spec.id}-{sent_no}")
        lines.append("# text = " + " ".join(forms))
        if sent_no % 7 == 0 and length >= 2:
            lines.append(f"1-2\t{forms[0]}{forms[1]}\t_\t_\t_\t_\t_\t_\t_\t_")
        if sent_no % 11 == 0:
            rows.insert(1, "1.1" + _EMPTY_NODE)
        lines.extend(rows)
        lines.append("")
    return "\n".join(lines) + "\n"


def wals_csv(languages: list[str], spelling: np.random.Generator) -> str:
    """A 28-feature WALS export: 2-6 categories per feature, ~15% missing.

    Category counts are fixed; ``spelling`` draws each language's values.
    """
    n_categories = np.random.default_rng(28).integers(2, 7, size=len(WALS_FEATURES))
    header = ["language_code"] + [f"{fid} Feature {fid}" for fid in WALS_FEATURES]
    draws = spelling.integers(0, 1 << 30, size=(len(languages), len(WALS_FEATURES)))
    missing = spelling.random((len(languages), len(WALS_FEATURES))) < 0.15
    rows = [",".join(header)]
    for i, code in enumerate(languages):
        cells = [code]
        for j, k in enumerate(n_categories):
            c = int(draws[i, j] % k) + 1
            cells.append("" if missing[i, j] else f"{c} Value {c}")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def write_inputs(
    directory: str,
    specs: list[TreebankSpec],
    seed: int,
    config: dict[str, object],
    with_wals: bool,
) -> str:
    """Write treebanks, manifest, optional WALS CSV and config; return the config path."""
    os.makedirs(directory, exist_ok=True)
    spelling = np.random.default_rng([seed, 20220411])
    manifest = []
    for spec in specs:
        name = f"{spec.id}.conllu"
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as f:
            f.write(treebank_text(spec, spelling))
        manifest.append(f"{spec.id}\t{spec.lang}\t{name}")
    with open(os.path.join(directory, "manifest.tsv"), "w", encoding="utf-8") as f:
        f.write("\n".join(manifest) + "\n")
    lines = ["manifest = manifest.tsv", "out = out"]
    if with_wals:
        languages = sorted({s.lang for s in specs}) + [f"zz{i}" for i in range(6)]
        with open(os.path.join(directory, "wals.csv"), "w", encoding="utf-8") as f:
            f.write(wals_csv(languages, spelling))
        lines.append("wals = wals.csv")
    lines += [f"{k} = {v}" for k, v in config.items()]
    path = os.path.join(directory, "run.cfg")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path
