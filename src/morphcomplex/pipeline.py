"""End-to-end orchestration: measure, analyze and plot stages.

All tabular outputs are TSV (UTF-8, header row, ``NA`` for unavailable
cells) with ``#`` metadata lines on top; the run seed is recorded in every
file so outputs are traceable to their configuration.  Before it writes, a
stage deletes its own outputs and those of every later stage, so no file
left by an earlier run is read as this run's.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import svgplot
from .analysis import (
    DEFAULT_ALPHA_GRID,
    MeasureMatrix,
    correlation_matrix,
    pca,
    ridge_loocv,
    standardize,
)
from .config import RunConfig
from .conllu import Exclusion, apply_exclusions, parse_conllu_file, read_manifest
from .inflection import IAResult, IASearchConfig, cross_validate, extract_instances
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

# Every file each stage writes, in stage order.
_STAGE_OUTPUTS = {
    "measure": (MEASURES_TSV, TREEBANKS_TSV, RUN_META_JSON, IA_PARAMS_JSON),
    "analyze": (CORRELATIONS_TSV, PCA_TSV, PCA_SCORES_TSV, RIDGE_TSV, ANALYZE_META_JSON),
    "plot": (MEASURES_SVG, PCA_SVG, WALS_ERROR_SVG),
}

NA = "NA"


def _cell(value: object) -> str:
    """One TSV cell: ``NA`` for None or NaN, ``true``/``false`` for a bool,
    12 significant digits for a float, ``str`` of anything else."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return NA
    if isinstance(value, (bool, np.bool_)):  # before int: a bool is an int
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


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


def _remove_outputs(out_dir: str, stage: str):
    """Delete earlier runs' outputs of ``stage`` and of every later stage."""
    stages = list(_STAGE_OUTPUTS)
    for later in stages[stages.index(stage):]:
        for name in _STAGE_OUTPUTS[later]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))


def _write_json(path: str, obj: object):
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_tsv(path: str, meta: dict[str, object], header: list[str], rows: list[list[object]]):
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append("\t".join(header))
    lines.extend("\t".join(map(_cell, row)) for row in rows)
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
    n_sentences: int = 0
    n_tokens: int = 0
    n_feature_keys: int = 0
    exclusions: tuple[Exclusion, ...] = ()
    stats: dict[str, MeasureStats] = field(default_factory=dict)
    ia: IAResult | None = None
    error: str = ""  # set exactly when the treebank failed

    @property
    def status(self) -> str:
        return "failed" if self.error else "ok"


def _measure_one(entry: tuple[str, str, str], config: RunConfig) -> TreebankOutcome:
    """Parse, exclude and score one manifest entry ``(id, language, path)``.

    Any exception becomes a ``failed`` outcome that keeps the counts and
    exclusions known before it, so one treebank cannot stop the others.
    """
    tb_id, lang, path = entry
    outcome = TreebankOutcome(treebank_id=tb_id, language_code=lang)
    try:
        treebank = parse_conllu_file(path, tb_id, lowercase=config.lowercase)
        outcome.n_sentences = len(treebank.sentences)
        outcome.n_tokens = treebank.n_tokens
        outcome.n_feature_keys = treebank.n_feature_keys
        outcome.exclusions = apply_exclusions(
            treebank, config.min_feature_keys, config.script_exclude
        )
        excluded = {m for e in outcome.exclusions for m in e.measures}
        sample_names = [m for m in config.measures if m != "neg_ia" and m not in excluded]
        if sample_names:
            fns = sample_measure_functions(sample_names, is_count_values=config.is_unit == "pairs")
            outcome.stats.update(run_repetitions(
                treebank, fns, config.target_tokens, config.repetitions, config.seed
            ))
        if "neg_ia" in config.measures and "neg_ia" not in excluded:
            rng = inflection_rng(config.seed, tb_id)
            sample = bootstrap_sample(treebank, config.target_tokens, rng)
            instances = extract_instances(sample)
            if len(instances) < IASearchConfig.n_folds:
                outcome.stats["neg_ia"] = MeasureStats(None, None, 1)
            else:
                result = cross_validate(instances, IASearchConfig(config.ia_draws), rng)
                outcome.ia = result
                outcome.stats["neg_ia"] = MeasureStats(result.measure_value, 0.0, 1)
    except Exception as exc:  # isolate per-treebank failures
        error = f"{type(exc).__name__}: {exc}"
        debug = log.isEnabledFor(logging.DEBUG)
        log.error("treebank %s (%s) failed: %s", tb_id, path, error, exc_info=debug)
        return replace(outcome, stats={}, ia=None, error=error)
    return outcome


def run_measure(config: RunConfig) -> list[TreebankOutcome]:
    """Parse, exclude, sample and score every treebank in the manifest.

    Each manifest entry is one task, run in a worker when ``jobs > 1``.
    Outcomes come back in manifest order; failures stay with their
    treebank and are reported in ``treebanks.tsv``.  A ``script_exclude``
    id that names no manifest treebank is an error, raised before ``out``
    is created.
    """
    config.validate_paths()
    entries = read_manifest(config.manifest)
    unknown = sorted(config.script_exclude - {tb_id for tb_id, _, _ in entries})
    if unknown:
        raise ValueError(f"config key script_exclude: not a manifest treebank id: {unknown}")
    os.makedirs(config.out, exist_ok=True)
    _remove_outputs(config.out, "measure")
    if config.jobs > 1 and len(entries) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs
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
        "seed": config.seed,
        "target_tokens": config.target_tokens,
        "repetitions": config.repetitions,
        "compressor": COMPRESSOR_SETTING,
    }
    rows: list[list[object]] = []
    for outcome in outcomes:
        if outcome.error:
            continue
        for measure in config.measures:
            # A measure excluded by rule was never computed.
            stats = outcome.stats.get(measure, MeasureStats(None, None, 0))
            rows.append([outcome.treebank_id, measure, stats.mean, stats.stddev,
                         stats.n_repetitions, stats.available])
    header = ["treebank_id", "measure", "mean", "stddev", "n_repetitions", "available"]
    _write_tsv(os.path.join(config.out, MEASURES_TSV), meta, header, rows)

    tb_rows = [
        [o.treebank_id, o.language_code, o.status, o.n_sentences, o.n_tokens, o.n_feature_keys,
         _exclusions_cell(o.exclusions), o.error.replace("\t", " ").replace("\n", " ") or "-"]
        for o in outcomes
    ]
    _write_tsv(
        os.path.join(config.out, TREEBANKS_TSV),
        {"generator": "morphcomplex", "seed": config.seed},
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
        os.path.join(config.out, IA_PARAMS_JSON),
        {"seed": config.seed, "treebanks": ia_params},
    )

    run_meta = {
        "seed": config.seed,
        "target_tokens": config.target_tokens,
        "repetitions": config.repetitions,
        "measures": list(config.measures),
        "compressor": COMPRESSOR_SETTING,
        "alpha_grid": list(DEFAULT_ALPHA_GRID),
        "min_feature_keys": config.min_feature_keys,
        "script_excluded_ids": sorted(config.script_exclude),
        "lowercase": config.lowercase,
        "is_unit": config.is_unit,
        "ia_search": {
            "n_folds": IASearchConfig.n_folds,
            "n_draws": config.ia_draws,
            "ngram_range": list(IASearchConfig.ngram_range),
            "epoch_range": list(IASearchConfig.epoch_range),
        },
        "wals_rows": config.wals_rows,
    }
    _write_json(os.path.join(config.out, RUN_META_JSON), run_meta)


def read_measure_matrix(out_dir: str) -> tuple[MeasureMatrix, dict[str, str], int]:
    """Rebuild the treebank-by-measure matrix from the measure stage TSVs.

    Returns the matrix, a treebank-to-language map, and the run seed.
    """
    path = os.path.join(out_dir, MEASURES_TSV)
    meta, _, rows = _read_tsv(path)
    seed = int(meta.get("seed", "0"))
    cells: dict[tuple[str, str], float] = {}
    for row in rows:
        tb_id, measure, mean = row[0], row[1], row[2]
        if row[5] not in ("true", "false"):
            raise ValueError(
                f"{path}: row {tb_id}/{measure}: available is {row[5]!r}, not true or false"
            )
        if row[5] == "true" and mean != NA:
            cells[(tb_id, measure)] = float(mean)
    tb_order = list(dict.fromkeys(row[0] for row in rows))
    measures = tuple(m for m in ALL_MEASURES if any((tb, m) in cells for tb in tb_order))
    values = np.array([[cells.get((tb, m), math.nan) for m in measures] for tb in tb_order])
    values = values.reshape(len(tb_order), len(measures))  # also when either is empty
    matrix = MeasureMatrix(tuple(tb_order), measures, values)

    _, _, tb_rows = _read_tsv(os.path.join(out_dir, TREEBANKS_TSV))
    languages = {row[0]: row[1] for row in tb_rows}
    return matrix, languages, seed


def run_analyze(out_dir: str, config: RunConfig) -> dict[str, str]:
    """Correlations, PCA and WALS ridge regression over the measure TSV.

    Returns the skipped analyses, each with the reason it was skipped.
    """
    from .wals import encode, load_wals, match_rows

    matrix, languages, seed = read_measure_matrix(out_dir)
    _remove_outputs(out_dir, "analyze")
    records = None
    if config.wals is not None:  # before any output, so a bad file leaves none
        with open(config.wals, encoding="utf-8-sig") as f:
            records = load_wals(f.read())
    errors: dict[str, str] = {}
    meta = {"generator": "morphcomplex", "seed": seed}

    corr_rows: list[list[object]] = []
    for method in ("pearson", "spearman"):
        cm = correlation_matrix(matrix, method)
        for i, j in zip(*np.triu_indices(len(cm.measures))):
            corr_rows.append(
                [method, cm.measures[i], cm.measures[j], cm.values[i, j],
                 cm.significant[i, j], cm.n_complete[i, j]]
            )
    corr_header = ["method", "measure_i", "measure_j", "value", "significant", "n_complete"]
    _write_tsv(os.path.join(out_dir, CORRELATIONS_TSV), meta, corr_header, corr_rows)

    pca_result = None
    complete = matrix.complete_rows()
    if int(complete.sum()) >= 2:
        try:
            z = standardize(matrix.values[complete], matrix.measures)
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
            [k + 1, pca_result.explained_ratios[k], *pca_result.loadings[k]]
            for k in range(pca_result.loadings.shape[0])
        ]
        _write_tsv(os.path.join(out_dir, PCA_TSV), meta, loading_header, loading_rows)
        pc_names = [f"pc{k + 1}" for k in range(pca_result.scores.shape[1])]
        score_rows = [
            [tb, *scores]
            for tb, scores in zip(np.array(matrix.treebank_ids)[complete], pca_result.scores)
        ]
        scores_path = os.path.join(out_dir, PCA_SCORES_TSV)
        _write_tsv(scores_path, meta, ["treebank_id", *pc_names], score_rows)
        # Ridge targets are columns over every treebank, NaN where a target has no value.
        pc_columns = np.full((len(complete), len(pc_names)), math.nan)
        pc_columns[complete] = pca_result.scores
        targets = np.hstack([targets, pc_columns])
        target_names += pc_names

    ridge_rows: list[list[object]] = []
    if records is not None:
        # Targets over the same languages share one design and one ridge fit.
        row_sets: dict[tuple[str, ...], dict[str, np.ndarray]] = {}
        tb_codes = np.array([languages.get(tb, "") for tb in matrix.treebank_ids])
        for name, column in zip(target_names, targets.T):
            rows = ~np.isnan(column)
            try:
                codes, values = match_rows(
                    records, tb_codes[rows], column[rows], config.wals_rows == "per-language"
                )
                row_sets.setdefault(codes, {})[name] = standardize(values, [name])
            except ValueError as exc:
                errors[f"ridge:{name}"] = str(exc)
        for codes, columns in row_sets.items():
            report = ridge_loocv(encode(records, codes).matrix, np.hstack([*columns.values()]))
            for k, name in enumerate(columns):
                alphas = ";".join(map(_cell, report.chosen_alphas[:, k]))
                ridge_rows.append(
                    [name, len(codes), report.rmse[k], report.error_reduction[k], alphas]
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
    log.info("analyze stage: %d ridge targets, %d skipped analyses", len(ridge_rows), len(errors))
    return errors


def run_plot(out_dir: str) -> list[str]:
    """Render SVG figures from the analysis TSVs; returns written paths."""
    written: list[str] = []

    def write(name: str, svg: str):
        written.append(os.path.join(out_dir, name))
        _write_atomic(written[-1], svg)

    matrix, _, seed = read_measure_matrix(out_dir)
    _remove_outputs(out_dir, "plot")
    write(MEASURES_SVG, svgplot.measure_panels(matrix, seed=seed))

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
            write(PCA_SVG, svgplot.pca_scatter(x, y, ids, ratios[0], ratios[1], seed=seed))

    ridge_path = os.path.join(out_dir, RIDGE_TSV)
    if os.path.exists(ridge_path):
        _, _, rows = _read_tsv(ridge_path)
        if rows:
            names = [r[0] for r in rows]
            values = [float(r[3]) for r in rows]
            write(WALS_ERROR_SVG, svgplot.error_reduction_bars(names, values, seed=seed))
    return written
