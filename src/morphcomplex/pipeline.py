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
from typing import Sequence

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
from .conllu import parse_conllu_file, read_manifest, read_text
from .inflection import IASearchConfig, cross_validate, extract_instances
from .measures import (
    ALL_MEASURES,
    COMPRESSOR_SETTING,
    EXCLUDED_MEASURES,
    apply_exclusions,
    sample_measure_functions,
)
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

# The columns each TSV begins with; the readers check the ones they read.
MEASURES_COLUMNS = ("treebank_id", "measure", "mean", "stddev", "n_repetitions", "available")
TREEBANKS_COLUMNS = ("treebank_id", "language_code", "status", "n_sentences", "n_tokens",
                     "n_feature_keys", "exclusions", "error")
PCA_COLUMNS = ("component", "explained_ratio")  # then one loading column per measure
RIDGE_COLUMNS = ("target", "n_rows", "rmse", "error_reduction", "chosen_alphas")

NA = "NA"


def _cell(value: object) -> str:
    """One TSV cell: ``NA`` for None or NaN, ``true``/``false`` for a bool,
    12 significant digits for a float, ``str`` of anything else with each
    tab and line break made a space, so no cell splits its row."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return NA
    if isinstance(value, (bool, np.bool_)):  # before int: a bool is an int
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value).replace("\t", " ").replace("\n", " ")


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


def _write_tsv(path: str, meta: dict[str, object], header: Sequence[str], rows: list[list[object]]):
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append("\t".join(header))
    lines.extend("\t".join(map(_cell, row)) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _read_tsv(
    path: str, columns: Sequence[str] = (), id_columns: int = 0
) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """The ``# key: value`` lines, header and rows of a TSV whose header
    begins with ``columns``; with ``id_columns``, no two rows may share
    their first ``id_columns`` cells."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    ids: set[tuple[str, ...]] = set()
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
            elif id_columns and tuple(cells[:id_columns]) in ids:
                raise ValueError(f"{path}: row {'/'.join(cells[:id_columns])}: listed twice")
            else:
                ids.add(tuple(cells[:id_columns]))
                rows.append(cells)
    if tuple(header[: len(columns)]) != tuple(columns):
        raise ValueError(f"{path}: header {header} does not begin with the columns {list(columns)}")
    return meta, header, rows


def _parse(kind: type, text: str, path: str, where: str):
    """``kind(text)`` if it is finite, else a ``ValueError`` naming ``path`` and ``where``."""
    with contextlib.suppress(ValueError):
        if -math.inf < (value := kind(text)) < math.inf:  # false for nan too
            return value
    raise ValueError(f"{path}: {where}: cannot read {text!r} as {kind.__name__}")


def _exclusions_cell(exclusions: tuple[str, ...]) -> str:
    return ";".join(f"{r}:{'+'.join(EXCLUDED_MEASURES[r])}" for r in exclusions) or "-"


# One treebank's treebanks.tsv row, measures.tsv rows and ia_params.json entry.
TreebankRows = tuple[list[object], list[list[object]], dict[str, object] | None]


def _measure_one(entry: tuple[str, str, str], config: RunConfig) -> TreebankRows:
    """Parse, exclude and score one manifest entry ``(id, language, path)``.

    Returns its ``treebanks.tsv`` row, its ``measures.tsv`` rows and its
    ``ia_params.json`` entry (``None`` without a ``neg_ia`` fit).  Any exception
    makes a ``failed`` row that keeps the counts and exclusions known
    before it, and no other rows, so one treebank cannot stop the others.
    """
    tb_id, lang, path = entry
    counts = [0, 0, 0]
    exclusions: tuple[str, ...] = ()
    try:
        treebank = parse_conllu_file(path, tb_id, lowercase=config.lowercase)
        counts = [len(treebank.sentences), treebank.n_tokens, treebank.n_feature_keys]
        exclusions = apply_exclusions(treebank, config.min_feature_keys, config.script_exclude)
        excluded = {m for reason in exclusions for m in EXCLUDED_MEASURES[reason]}
        sample_names = [m for m in config.measures if m != "neg_ia" and m not in excluded]
        stats: dict[str, MeasureStats] = {}
        if sample_names:
            fns = sample_measure_functions(sample_names, is_count_values=config.is_unit == "pairs")
            stats = run_repetitions(
                treebank, fns, config.target_tokens, config.repetitions, config.seed
            )
        ia = None
        if "neg_ia" in config.measures and "neg_ia" not in excluded:
            rng = inflection_rng(config.seed, tb_id)
            sample = bootstrap_sample(treebank, config.target_tokens, rng)
            instances = extract_instances(sample)
            if len(instances) < IASearchConfig.n_folds:
                stats["neg_ia"] = MeasureStats(None, None, 1)
            else:
                result = cross_validate(instances, config.ia_draws, rng)
                stats["neg_ia"] = MeasureStats(-result.mean_accuracy, 0.0, 1)
                ia = {
                    "ngram_order": result.params.ngram_order,
                    "epochs": result.params.epochs,
                    "mean_accuracy": result.mean_accuracy,
                    "fold_accuracies": list(result.fold_accuracies),
                    "n_draws": config.ia_draws,
                }
    except Exception as exc:  # isolate per-treebank failures
        error = f"{type(exc).__name__}: {exc}"
        debug = log.isEnabledFor(logging.DEBUG)
        log.error("treebank %s (%s) failed: %s", tb_id, path, error, exc_info=debug)
        return [tb_id, lang, "failed", *counts, _exclusions_cell(exclusions), error], [], None
    rows: list[list[object]] = []
    for measure in config.measures:
        # A measure excluded by rule was never computed.
        st = stats.get(measure, MeasureStats(None, None, 0))
        rows.append([tb_id, measure, st.mean, st.stddev, st.n_repetitions, st.available])
    return [tb_id, lang, "ok", *counts, _exclusions_cell(exclusions), "-"], rows, ia


def run_measure(config: RunConfig) -> int:
    """Parse, exclude, sample and score every treebank in the manifest;
    returns the number of treebanks that failed.

    Each manifest entry is one task, run in a worker when ``jobs > 1``.
    Rows are written in manifest order; failures stay with their treebank
    and are reported in ``treebanks.tsv``.  A ``script_exclude`` id that
    names no manifest treebank is an error, raised before ``out`` is
    created.
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
        # Fork starts every worker at the first submit: no more than there are tasks.
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(entries))) as pool:
            results = list(pool.map(_measure_one, entries, [config] * len(entries)))
    else:
        results = [_measure_one(entry, config) for entry in entries]
    _write_measure_outputs(results, config)
    n_failed = sum(tb_row[2] == "failed" for tb_row, _, _ in results)
    n_ok = len(results) - n_failed
    log.info("measure stage: %d ok, %d failed; outputs in %s", n_ok, n_failed, config.out)
    return n_failed


def _write_measure_outputs(results: list[TreebankRows], config: RunConfig):
    """Write the rows of ``_measure_one`` and the run settings, ``measures.tsv``
    last, so a stage stopped before the end leaves no ``measures.tsv`` for
    ``analyze`` to read."""
    _write_tsv(
        os.path.join(config.out, TREEBANKS_TSV),
        {"generator": "morphcomplex", "seed": config.seed},
        TREEBANKS_COLUMNS,
        [tb_row for tb_row, _, _ in results],
    )
    ia_params = {tb_row[0]: ia for tb_row, _, ia in results if ia is not None}
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

    meta = {
        "generator": "morphcomplex",
        "seed": config.seed,
        "target_tokens": config.target_tokens,
        "repetitions": config.repetitions,
        "compressor": COMPRESSOR_SETTING,
    }
    rows = [row for _, measure_rows, _ in results for row in measure_rows]
    _write_tsv(os.path.join(config.out, MEASURES_TSV), meta, MEASURES_COLUMNS, rows)


def read_measure_matrix(out_dir: str) -> tuple[MeasureMatrix, int]:
    """The treebank-by-measure matrix of ``measures.tsv``, and the run seed."""
    path = os.path.join(out_dir, MEASURES_TSV)
    meta, _, rows = _read_tsv(path, MEASURES_COLUMNS, id_columns=2)
    if "seed" not in meta:
        raise ValueError(f"{path}: no '# seed:' line")
    seed = _parse(int, meta["seed"], path, "# seed")
    cells: dict[tuple[str, str], float] = {}
    for row in rows:
        tb_id, measure, mean = row[0], row[1], row[2]
        if measure not in ALL_MEASURES:
            raise ValueError(f"{path}: row {tb_id}/{measure}: unknown measure")
        if row[5] not in ("true", "false"):
            raise ValueError(
                f"{path}: row {tb_id}/{measure}: available is {row[5]!r}, not true or false"
            )
        if row[5] == "true" and mean != NA:
            cells[(tb_id, measure)] = _parse(float, mean, path, f"row {tb_id}/{measure}: mean")
    tb_order = list(dict.fromkeys(row[0] for row in rows))
    measures = tuple(m for m in ALL_MEASURES if any((tb, m) in cells for tb in tb_order))
    values = np.array([[cells.get((tb, m), math.nan) for m in measures] for tb in tb_order])
    values = values.reshape(len(tb_order), len(measures))  # also when either is empty
    return MeasureMatrix(tuple(tb_order), measures, values), seed


def run_analyze(out_dir: str, config: RunConfig) -> dict[str, str]:
    """Correlations, PCA and WALS ridge regression over the measure TSV.

    Returns the skipped analyses, each with the reason it was skipped.
    """
    from .wals import encode, load_wals, match_rows

    matrix, seed = read_measure_matrix(out_dir)
    tb_path = os.path.join(out_dir, TREEBANKS_TSV)
    _, _, tb_rows = _read_tsv(tb_path, TREEBANKS_COLUMNS[:2], id_columns=1)
    languages = {row[0]: row[1] for row in tb_rows}
    if missing := [tb for tb in matrix.treebank_ids if tb not in languages]:
        raise ValueError(f"{tb_path}: row {missing[0]}: missing; {MEASURES_TSV} lists it")
    _remove_outputs(out_dir, "analyze")
    wals_table = None
    if config.wals is not None:  # before any output, so a bad file leaves none
        wals_table = load_wals(read_text(config.wals))
    errors: dict[str, str] = {}
    meta = {"generator": "morphcomplex", "seed": seed}

    corr_rows: list[list[object]] = []
    for method in ("pearson", "spearman"):
        cm = correlation_matrix(matrix, method)
        for i, j in zip(*np.triu_indices(len(matrix.measures))):
            corr_rows.append(
                [method, matrix.measures[i], matrix.measures[j], cm.values[i, j],
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
        loading_header = [*PCA_COLUMNS, *(f"loading:{m}" for m in matrix.measures)]
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
    if wals_table is not None:
        # Targets over the same languages share one design and one ridge fit.
        row_sets: dict[tuple[str, ...], dict[str, np.ndarray]] = {}
        tb_codes = np.array([languages[tb] for tb in matrix.treebank_ids])
        for name, column in zip(target_names, targets.T):
            rows = ~np.isnan(column)
            try:
                codes, values = match_rows(
                    wals_table, tb_codes[rows], column[rows], config.wals_rows == "per-language"
                )
                row_sets.setdefault(codes, {})[name] = standardize(values, [name])
            except ValueError as exc:
                errors[f"ridge:{name}"] = str(exc)
        for codes, columns in row_sets.items():
            report = ridge_loocv(encode(wals_table, codes).matrix, np.hstack([*columns.values()]))
            for k, name in enumerate(columns):
                alphas = ";".join(map(_cell, report.chosen_alphas[:, k]))
                ridge_rows.append(
                    [name, len(codes), report.rmse[k], report.error_reduction[k], alphas]
                )
        ridge_rows.sort(key=lambda row: target_names.index(row[0]))
        _write_tsv(os.path.join(out_dir, RIDGE_TSV), meta, RIDGE_COLUMNS, ridge_rows)

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

    matrix, seed = read_measure_matrix(out_dir)
    _remove_outputs(out_dir, "plot")
    write(MEASURES_SVG, svgplot.measure_panels(matrix, seed=seed))

    scores_path = os.path.join(out_dir, PCA_SCORES_TSV)
    pca_path = os.path.join(out_dir, PCA_TSV)
    if os.path.exists(scores_path) and os.path.exists(pca_path):
        _, header, rows = _read_tsv(scores_path, ["treebank_id"])
        if len(header) >= 3 and rows:
            ids = [r[0] for r in rows]
            x = [_parse(float, r[1], scores_path, f"row {r[0]}") for r in rows]
            y = [_parse(float, r[2], scores_path, f"row {r[0]}") for r in rows]
            _, _, pca_rows_ = _read_tsv(pca_path, PCA_COLUMNS)
            if len(pca_rows_) < 2:
                raise ValueError(f"{pca_path}: {len(pca_rows_)} component rows; the scatter needs 2")
            ratios = [_parse(float, r[1], pca_path, f"component {r[0]}") for r in pca_rows_]
            write(PCA_SVG, svgplot.pca_scatter(x, y, ids, ratios[0], ratios[1], seed=seed))

    ridge_path = os.path.join(out_dir, RIDGE_TSV)
    if os.path.exists(ridge_path):
        _, _, rows = _read_tsv(ridge_path, RIDGE_COLUMNS[:4])
        if rows:
            names = [r[0] for r in rows]
            values = [_parse(float, r[3], ridge_path, f"row {r[0]}") for r in rows]
            write(WALS_ERROR_SVG, svgplot.error_reduction_bars(names, values, seed=seed))
    return written
