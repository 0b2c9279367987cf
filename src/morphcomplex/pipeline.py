"""End-to-end orchestration: measure, analyze and plot stages.

All tabular outputs are TSV (UTF-8, header row, ``NA`` for unavailable
cells) with ``#`` metadata lines on top; the run seed is recorded in every
file so outputs are traceable to their configuration.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import svgplot
from .analysis import (
    DEFAULT_ALPHA_GRID,
    CorrelationMatrix,
    MeasureMatrix,
    PcaResult,
    correlation_matrix,
    pca,
    ridge_loocv,
    standardize,
)
from .config import RunConfig
from .conllu import Exclusion, apply_exclusions, parse_conllu_file, read_manifest
from .inflection import IAResult, cross_validate, extract_instances
from .measures import ALL_MEASURES, COMPRESSOR_SETTING, sample_measure_functions
from .sampling import MeasureStats, bootstrap_sample, inflection_rng, run_repetitions

log = logging.getLogger(__name__)

MEASURES_TSV = "measures.tsv"
TREEBANKS_TSV = "treebanks.tsv"
RUN_META_JSON = "run_meta.json"
IA_PARAMS_JSON = "ia_params.json"
CORRELATIONS_TSV = "correlations.tsv"
PCA_TSV = "pca.tsv"
PCA_SCORES_TSV = "pca_scores.tsv"
RIDGE_TSV = "ridge.tsv"
ANALYZE_META_JSON = "analyze_meta.json"
MEASURES_SVG = "measures.svg"
PCA_SVG = "pca.svg"
WALS_ERROR_SVG = "wals_error.svg"

NA = "NA"


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return NA
    return f"{value:.12g}"


def _write_atomic(path: str, text: str):
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``, so a killed run leaves the old file or none, never a cut one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _remove_outputs(out_dir: str, *names: str):
    """Delete earlier runs' copies of outputs this run may not write."""
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def _write_json(path: str, obj: object):
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_tsv(path: str, meta: dict[str, object], header: list[str], rows: list[list[str]]):
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append("\t".join(header))
    lines.extend("\t".join(row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _read_tsv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition(":")
                if sep:
                    meta[key.strip()] = value.strip()
                continue
            cells = line.split("\t")
            if not header:
                header = cells
            elif len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(header)} columns, got {len(cells)}"
                )
            else:
                rows.append(cells)
    return meta, header, rows


@dataclass
class TreebankOutcome:
    treebank_id: str
    language_code: str
    status: str  # "ok" or "failed"
    n_sentences: int = 0
    n_tokens: int = 0
    n_feature_keys: int = 0
    exclusions: tuple[Exclusion, ...] = ()
    stats: dict[str, MeasureStats] = field(default_factory=dict)
    ia: IAResult | None = None
    error: str = ""


def _measure_one(entry: tuple[str, str, str], config: RunConfig) -> TreebankOutcome:
    """Parse, exclude and score one manifest entry ``(id, language, path)``.

    Any exception becomes a ``failed`` outcome that keeps the counts and
    exclusions known before it, so one treebank cannot stop the others.
    """
    tb_id, lang, path = entry
    outcome = TreebankOutcome(treebank_id=tb_id, language_code=lang, status="ok")
    try:
        treebank = parse_conllu_file(path, tb_id, lang, lowercase=config.lowercase)
        outcome.n_sentences = len(treebank.sentences)
        outcome.n_tokens = treebank.n_tokens
        outcome.n_feature_keys = treebank.n_feature_keys
        outcome.exclusions = apply_exclusions(treebank, config.exclusions)
        excluded = {m for e in outcome.exclusions for m in e.measures}
        sample_names = [m for m in config.measures if m != "neg_ia" and m not in excluded]
        if sample_names:
            fns = sample_measure_functions(sample_names, is_count_values=config.is_count_values)
            outcome.stats.update(run_repetitions(treebank, config.sample, fns))
        if "neg_ia" in config.measures and "neg_ia" not in excluded:
            rng = inflection_rng(config.sample.seed, tb_id)
            sample = bootstrap_sample(treebank, config.sample.target_tokens, rng)
            instances = extract_instances(sample)
            if len(instances) < config.ia_search.n_folds:
                outcome.stats["neg_ia"] = MeasureStats(None, None, 1, 0)
            else:
                result = cross_validate(instances, config.ia_search, rng)
                outcome.ia = result
                outcome.stats["neg_ia"] = MeasureStats(result.measure_value, 0.0, 1, 1)
    except Exception as exc:  # isolate per-treebank failures
        error = f"{type(exc).__name__}: {exc}"
        debug = log.isEnabledFor(logging.DEBUG)
        log.error("treebank %s (%s) failed: %s", tb_id, path, error, exc_info=debug)
        return replace(outcome, status="failed", stats={}, ia=None, error=error)
    return outcome


def run_measure(config: RunConfig) -> list[TreebankOutcome]:
    """Parse, exclude, sample and score every treebank in the manifest.

    Each manifest entry is one task, run in a worker when ``jobs > 1``.
    Outcomes come back in manifest order; failures stay with their
    treebank and are reported in ``treebanks.tsv``.
    """
    config.validate_paths()
    entries = read_manifest(config.manifest)
    os.makedirs(config.out_dir, exist_ok=True)
    if config.jobs > 1 and len(entries) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_measure_one, entries, [config] * len(entries)))
    else:
        outcomes = [_measure_one(entry, config) for entry in entries]
    _write_measure_outputs(outcomes, config)
    return outcomes


def _exclusions_cell(exclusions: tuple[Exclusion, ...]) -> str:
    if not exclusions:
        return "-"
    return ";".join(f"{e.reason}:{'+'.join(e.measures)}" for e in exclusions)


def _write_measure_outputs(outcomes: list[TreebankOutcome], config: RunConfig):
    meta = {
        "generator": "morphcomplex",
        "seed": config.sample.seed,
        "target_tokens": config.sample.target_tokens,
        "repetitions": config.sample.repetitions,
        "compressor": COMPRESSOR_SETTING,
    }
    rows: list[list[str]] = []
    for outcome in outcomes:
        if outcome.status != "ok":
            continue
        for measure in config.measures:
            stats = outcome.stats.get(measure)
            if stats is None:  # excluded by rule: never computed
                rows.append([outcome.treebank_id, measure, NA, NA, "0", "false"])
            else:
                rows.append(
                    [
                        outcome.treebank_id,
                        measure,
                        _fmt(stats.mean),
                        _fmt(stats.stddev),
                        str(stats.n_repetitions),
                        "true" if stats.available else "false",
                    ]
                )
    _write_tsv(
        os.path.join(config.out_dir, MEASURES_TSV),
        meta,
        ["treebank_id", "measure", "mean", "stddev", "n_repetitions", "available"],
        rows,
    )

    tb_rows = [
        [
            o.treebank_id,
            o.language_code,
            o.status,
            str(o.n_sentences),
            str(o.n_tokens),
            str(o.n_feature_keys),
            _exclusions_cell(o.exclusions),
            o.error.replace("\t", " ").replace("\n", " ") or "-",
        ]
        for o in outcomes
    ]
    _write_tsv(
        os.path.join(config.out_dir, TREEBANKS_TSV),
        {"generator": "morphcomplex", "seed": config.sample.seed},
        [
            "treebank_id", "language_code", "status", "n_sentences",
            "n_tokens", "n_feature_keys", "exclusions", "error",
        ],
        tb_rows,
    )

    ia_params = {
        o.treebank_id: {
            "ngram_order": o.ia.params.ngram_order,
            "epochs": o.ia.params.epochs,
            "mean_accuracy": o.ia.mean_accuracy,
            "fold_accuracies": list(o.ia.fold_accuracies),
            "n_draws": o.ia.n_draws,
        }
        for o in outcomes
        if o.ia is not None
    }
    _write_json(
        os.path.join(config.out_dir, IA_PARAMS_JSON),
        {"seed": config.sample.seed, "treebanks": ia_params},
    )

    run_meta = {
        "seed": config.sample.seed,
        "target_tokens": config.sample.target_tokens,
        "repetitions": config.sample.repetitions,
        "measures": list(config.measures),
        "compressor": COMPRESSOR_SETTING,
        "alpha_grid": list(DEFAULT_ALPHA_GRID),
        "min_feature_keys": config.exclusions.min_feature_keys,
        "script_excluded_ids": sorted(config.exclusions.script_excluded_ids),
        "lowercase": config.lowercase,
        "is_unit": "pairs" if config.is_count_values else "keys",
        "ia_search": {
            "n_folds": config.ia_search.n_folds,
            "n_draws": config.ia_search.n_draws,
            "ngram_range": list(config.ia_search.ngram_range),
            "epoch_range": list(config.ia_search.epoch_range),
        },
        "wals_rows": config.wals_rows,
    }
    _write_json(os.path.join(config.out_dir, RUN_META_JSON), run_meta)


def read_measure_matrix(out_dir: str) -> tuple[MeasureMatrix, dict[str, str], int]:
    """Rebuild the treebank-by-measure matrix from the measure stage TSVs.

    Returns the matrix, a treebank-to-language map, and the run seed.
    """
    path = os.path.join(out_dir, MEASURES_TSV)
    meta, _, rows = _read_tsv(path)
    seed = int(meta.get("seed", "0"))
    cells: dict[tuple[str, str], float] = {}
    tb_order: list[str] = []
    present: set[str] = set()
    for row in rows:
        tb_id, measure, mean = row[0], row[1], row[2]
        if row[5] not in ("true", "false"):
            raise ValueError(
                f"{path}: row {tb_id}/{measure}: available is {row[5]!r}, not true or false"
            )
        available = row[5] == "true"
        if tb_id not in present:
            present.add(tb_id)
            tb_order.append(tb_id)
        if available and mean != NA:
            cells[(tb_id, measure)] = float(mean)
    measures = tuple(m for m in ALL_MEASURES if any((tb, m) in cells for tb in tb_order))
    values = np.full((len(tb_order), len(measures)), math.nan)
    for i, tb_id in enumerate(tb_order):
        for j, measure in enumerate(measures):
            if (tb_id, measure) in cells:
                values[i, j] = cells[(tb_id, measure)]
    matrix = MeasureMatrix(tuple(tb_order), measures, values)

    _, _, tb_rows = _read_tsv(os.path.join(out_dir, TREEBANKS_TSV))
    languages = {row[0]: row[1] for row in tb_rows}
    return matrix, languages, seed


@dataclass
class AnalyzeResult:
    correlations: dict[str, CorrelationMatrix]
    pca_result: PcaResult | None
    ridge_rows: list[list[str]]
    errors: dict[str, str]


def run_analyze(out_dir: str, config: RunConfig) -> AnalyzeResult:
    """Correlations, PCA and WALS ridge regression over the measure TSV."""
    from .wals import encode, load_wals, match_rows

    matrix, languages, seed = read_measure_matrix(out_dir)
    _remove_outputs(out_dir, PCA_TSV, PCA_SCORES_TSV, RIDGE_TSV)
    errors: dict[str, str] = {}
    meta = {"generator": "morphcomplex", "seed": seed}

    correlations: dict[str, CorrelationMatrix] = {}
    corr_rows: list[list[str]] = []
    for method in ("pearson", "spearman"):
        cm = correlation_matrix(matrix, method)
        correlations[method] = cm
        for i, mi in enumerate(cm.measures):
            for j in range(i, len(cm.measures)):
                corr_rows.append(
                    [
                        method,
                        mi,
                        cm.measures[j],
                        _fmt(cm.values[i, j]),
                        "true" if cm.significant[i, j] else "false",
                        str(int(cm.n_complete[i, j])),
                    ]
                )
    _write_tsv(
        os.path.join(out_dir, CORRELATIONS_TSV),
        meta,
        ["method", "measure_i", "measure_j", "value", "significant", "n_complete"],
        corr_rows,
    )

    pca_result: PcaResult | None = None
    complete = matrix.complete_rows()
    if int(complete.sum()) >= 2:
        try:
            z, _, _ = standardize(matrix.values[complete], matrix.measures)
            orient = matrix.measures.index("ttr") if "ttr" in matrix.measures else 0
            pca_result = pca(z, orient_column=orient)
        except ValueError as exc:
            errors["pca"] = str(exc)
    else:
        errors["pca"] = (
            f"only {int(complete.sum())} treebanks have all of {matrix.measures}; need >= 2"
        )
    targets = matrix.values
    target_names = list(matrix.measures)
    if pca_result is not None:
        loading_header = ["component", "explained_ratio"] + [
            f"loading:{m}" for m in matrix.measures
        ]
        loading_rows = [
            [str(k + 1), _fmt(float(pca_result.explained_ratios[k]))]
            + [_fmt(float(v)) for v in pca_result.loadings[k]]
            for k in range(pca_result.loadings.shape[0])
        ]
        _write_tsv(os.path.join(out_dir, PCA_TSV), meta, loading_header, loading_rows)
        pc_names = [f"pc{k + 1}" for k in range(pca_result.scores.shape[1])]
        score_rows = [
            [tb] + [_fmt(float(v)) for v in scores]
            for tb, scores in zip(np.array(matrix.treebank_ids)[complete], pca_result.scores)
        ]
        scores_path = os.path.join(out_dir, PCA_SCORES_TSV)
        _write_tsv(scores_path, meta, ["treebank_id", *pc_names], score_rows)
        # Ridge targets are columns over every treebank, NaN where a target has no value.
        pc_columns = np.full((len(complete), len(pc_names)), math.nan)
        pc_columns[complete] = pca_result.scores
        targets = np.hstack([targets, pc_columns])
        target_names += pc_names

    ridge_rows: list[list[str]] = []
    if config.wals_csv is not None:
        with open(config.wals_csv, encoding="utf-8") as f:
            records = load_wals(f.read())
        # Targets over the same languages share one design and one ridge fit.
        row_sets: dict[tuple[str, ...], list[tuple[str, np.ndarray]]] = {}
        tb_codes = np.array([languages.get(tb, "") for tb in matrix.treebank_ids])
        for name, column in zip(target_names, targets.T):
            rows = ~np.isnan(column)
            try:
                codes, values = match_rows(
                    records, tb_codes[rows], column[rows], config.wals_rows == "per-language"
                )
                target, _, _ = standardize(values, [name])
            except ValueError as exc:
                errors[f"ridge:{name}"] = str(exc)
                continue
            row_sets.setdefault(codes, []).append((name, target[:, 0]))
        for codes, columns in row_sets.items():
            report = ridge_loocv(encode(records, codes), np.column_stack([t for _, t in columns]))
            for k, (name, _) in enumerate(columns):
                ridge_rows.append(
                    [
                        name,
                        str(len(codes)),
                        _fmt(float(report.rmse[k])),
                        _fmt(float(report.error_reduction[k])),
                        ";".join(_fmt(a) for a in report.chosen_alphas[:, k].tolist()),
                    ]
                )
        ridge_rows.sort(key=lambda row: target_names.index(row[0]))
        ridge_header = ["target", "n_rows", "rmse", "error_reduction", "chosen_alphas"]
        _write_tsv(os.path.join(out_dir, RIDGE_TSV), meta, ridge_header, ridge_rows)

    _write_json(
        os.path.join(out_dir, ANALYZE_META_JSON),
        {
            "seed": seed,
            "errors": errors,
            "n_pca_rows": 0 if pca_result is None else len(pca_result.scores),
            "wals_rows": config.wals_rows,
        },
    )
    for name, message in errors.items():
        log.warning("analysis %s skipped: %s", name, message)
    return AnalyzeResult(correlations, pca_result, ridge_rows, errors)


def run_plot(out_dir: str) -> list[str]:
    """Render SVG figures from the analysis TSVs; returns written paths."""
    written: list[str] = []
    matrix, _, seed = read_measure_matrix(out_dir)
    _remove_outputs(out_dir, PCA_SVG, WALS_ERROR_SVG)
    svg = svgplot.measure_panels(matrix, seed=seed)
    path = os.path.join(out_dir, MEASURES_SVG)
    _write_atomic(path, svg)
    written.append(path)

    scores_path = os.path.join(out_dir, PCA_SCORES_TSV)
    pca_path = os.path.join(out_dir, PCA_TSV)
    if os.path.exists(scores_path) and os.path.exists(pca_path):
        _, header, rows = _read_tsv(scores_path)
        if len(header) >= 3 and rows:
            ids = [r[0] for r in rows]
            x = [float(r[1]) for r in rows]
            y = [float(r[2]) for r in rows]
            _, _, pca_rows_ = _read_tsv(pca_path)
            ratios = [float(r[1]) for r in pca_rows_]
            svg = svgplot.pca_scatter(x, y, ids, ratios[0], ratios[1], seed=seed)
            path = os.path.join(out_dir, PCA_SVG)
            _write_atomic(path, svg)
            written.append(path)

    ridge_path = os.path.join(out_dir, RIDGE_TSV)
    if os.path.exists(ridge_path):
        _, _, rows = _read_tsv(ridge_path)
        if rows:
            names = [r[0] for r in rows]
            values = [float(r[3]) for r in rows]
            svg = svgplot.error_reduction_bars(names, values, seed=seed)
            path = os.path.join(out_dir, WALS_ERROR_SVG)
            _write_atomic(path, svg)
            written.append(path)
    return written
