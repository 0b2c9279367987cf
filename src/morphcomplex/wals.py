"""Loading WALS typological features and one-hot encoding for regression.

A loaded WALS table is one mapping from each casefolded language code to
its non-empty feature values, so a manifest and a WALS export may disagree
on letter case, and a code's first row is the only one kept.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

# The 28 morphology-related WALS feature ids, in atlas order.
MORPHOLOGY_FEATURES = (
    "22A", "26A", "27A", "28A", "29A", "30A", "33A", "34A", "37A", "38A",
    "49A", "51A", "57A", "59A", "65A", "66A", "67A", "69A", "70A", "73A",
    "74A", "75A", "78A", "94A", "101A", "102A", "111A", "112A",
)

_LANGUAGE_COLUMNS = ("language_code", "iso_code", "wals_code")
MISSING_CATEGORY = "__missing__"


@dataclass(frozen=True)
class DesignMatrix:
    matrix: np.ndarray
    column_names: tuple[str, ...]


def load_wals(
    csv_text: str, feature_list: Sequence[str] = MORPHOLOGY_FEATURES
) -> dict[str, dict[str, str]]:
    """Parse a WALS CSV export into each casefolded language code's feature values.

    The header must contain a language-code column (one of
    ``language_code``, ``iso_code``, ``wals_code``) and one column per
    requested feature; a feature column matches when its header equals the
    feature id or starts with ``"<id> "``.  Empty cells become missing
    values; columns outside ``feature_list`` are ignored.  A row whose code
    repeats an earlier one in any letter case is skipped with a warning.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty WALS CSV") from None
    header = [h.strip() for h in header]
    lower = [h.lower() for h in header]

    lang_col = next((lower.index(name) for name in _LANGUAGE_COLUMNS if name in lower), None)
    if lang_col is None:
        raise ValueError(f"WALS CSV needs a language column; expected one of {_LANGUAGE_COLUMNS}")

    feature_cols = {
        fid: next((i for i, h in enumerate(header) if h == fid or h.startswith(fid + " ")), None)
        for fid in feature_list
    }
    missing = [fid for fid, col in feature_cols.items() if col is None]
    if missing:
        raise ValueError(f"WALS CSV header is missing feature columns: {missing}")

    table: dict[str, dict[str, str]] = {}
    for row in reader:
        cells = [c.strip() for c in row] + [""] * len(header)  # a short row ends in empty cells
        if not any(cells):
            continue
        code = cells[lang_col]
        if not code:
            log.warning("load_wals: skipping row with empty language code")
            continue
        if code.casefold() in table:
            log.warning("load_wals: duplicate language %s; keeping first row", code)
            continue
        values = {fid: cells[col] for fid, col in feature_cols.items() if cells[col]}
        if not values:
            log.warning("load_wals: language %s has no feature values", code)
        table[code.casefold()] = values
    return table


def match_rows(
    table: Mapping[str, dict[str, str]],
    codes: Sequence[str],
    values: np.ndarray,
    per_language: bool,
) -> tuple[tuple[str, ...], np.ndarray]:
    """The regression rows of one target: its values whose language is in ``table``.

    ``codes[i]`` is the language of ``values[i]``.  Codes are looked up and
    returned casefolded.  With ``per_language`` the rows of each language
    become one row holding their mean, in sorted code order.  Raises
    ``ValueError`` when fewer than 3 rows (or languages) remain.
    """
    folded = [code.casefold() for code in codes]
    keep = [i for i, code in enumerate(folded) if code in table]
    if len(keep) < 3:
        raise ValueError(f"only {len(keep)} rows matched WALS languages")
    kept_codes = tuple(folded[i] for i in keep)
    kept_values = np.asarray(values, dtype=float)[keep]
    if not per_language:
        return kept_codes, kept_values
    languages = sorted(set(kept_codes))
    if len(languages) < 3:
        raise ValueError(f"only {len(languages)} languages matched WALS languages")
    row_codes = np.array(kept_codes)
    means = np.array([kept_values[row_codes == code].mean() for code in languages])
    return tuple(languages), means


def encode(
    table: Mapping[str, dict[str, str]],
    languages: Sequence[str],
    feature_list: Sequence[str] = MORPHOLOGY_FEATURES,
) -> DesignMatrix:
    """One-hot encode categorical features, one row per requested language.

    Each feature contributes one indicator per category observed anywhere
    in ``table`` plus a dedicated missing indicator, so every row sums to
    exactly 1 within each feature's block.  Languages not in ``table``
    (looked up casefolded) get all-missing rows.  Column order is fixed:
    feature-list order, then category lexicographic, missing last.
    """
    if not languages:
        raise ValueError("languages must be nonempty")

    columns = [
        (fid, cat)
        for fid in feature_list
        for cat in [*sorted({values[fid] for values in table.values() if fid in values}),
                    MISSING_CATEGORY]
    ]
    col_of = {column: k for k, column in enumerate(columns)}
    matrix = np.zeros((len(languages), len(columns)))
    for r, code in enumerate(languages):
        values = table.get(code.casefold(), {})
        matrix[r, [col_of[fid, values.get(fid, MISSING_CATEGORY)] for fid in feature_list]] = 1.0
    return DesignMatrix(matrix, tuple(f"{fid}={cat}" for fid, cat in columns))
