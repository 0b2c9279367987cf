"""End-to-end orchestration: measure, analyze and plot stages.

All tabular outputs are TSV (UTF-8, header row, ``NA`` for unavailable
cells) with ``#`` metadata lines on top; the run seed is recorded in every
file so outputs are traceable to their configuration.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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
from .conllu import (
    Exclusion,
    Treebank,
    apply_exclusions,
    parse_conllu_file,
    read_manifest,
    unavailable_measures,
)
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


def _write_tsv(path: str, meta: dict[str, object], header: list[str], rows: list[list[str]]):
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append("\t".join(header))
    lines.extend("\t".join(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


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


@dataclass
class MeasureRunResult:
    outcomes: list[TreebankOutcome]
    out_dir: str
    seed: int

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")


def _measure_one(treebank: Treebank, excluded: frozenset[str], config: RunConfig) -> TreebankOutcome:
    """Compute every requested measure for one treebank."""
    outcome = TreebankOutcome(
        treebank_id=treebank.id,
        language_code=treebank.language_code,
        status="ok",
        n_sentences=len(treebank.sentences),
        n_tokens=treebank.n_tokens,
        n_feature_keys=treebank.n_feature_keys,
    )
    sample_names = [m for m in config.measures if m != "neg_ia" and m not in excluded]
    if sample_names:
        fns = sample_measure_functions(sample_names, is_count_values=config.is_count_values)
        outcome.stats.update(run_repetitions(treebank, config.sample, fns))
    if "neg_ia" in config.measures and "neg_ia" not in excluded:
        rng = inflection_rng(config.sample.seed, treebank.id)
        sample = bootstrap_sample(treebank, config.sample.target_tokens, rng)
        instances = extract_instances(sample)
        if len(instances) < config.ia_search.n_folds:
            outcome.stats["neg_ia"] = MeasureStats(None, None, 1, 0)
        else:
            result = cross_validate(instances, config.ia_search, rng)
            outcome.ia = result
            outcome.stats["neg_ia"] = MeasureStats(result.measure_value, 0.0, 1, 1)
    return outcome


def _measure_task(payload: tuple[Treebank, frozenset[str], RunConfig]) -> TreebankOutcome:
    treebank, excluded, config = payload
    try:
        return _measure_one(treebank, excluded, config)
    except Exception as exc:  # isolate per-treebank failures
        log.error("measure stage failed for %s: %s", treebank.id, exc)
        return TreebankOutcome(
            treebank_id=treebank.id,
            language_code=treebank.language_code,
            status="failed",
            n_sentences=len(treebank.sentences),
            n_tokens=treebank.n_tokens,
            n_feature_keys=treebank.n_feature_keys,
            error=str(exc),
        )


def run_measure(config: RunConfig) -> MeasureRunResult:
    """Ingest, exclude, sample and score every treebank in the manifest.

    Failures are isolated per treebank; the run continues and reports them
    in ``treebanks.tsv``.
    """
    config.validate_paths()
    os.makedirs(config.out_dir, exist_ok=True)
    entries = read_manifest(config.manifest)

    treebanks: list[Treebank] = []
    failures: list[TreebankOutcome] = []
    for tb_id, lang, path in entries:
        try:
            treebanks.append(parse_conllu_file(path, tb_id, lang, lowercase=config.lowercase))
        except Exception as exc:
            log.error("failed to parse %s (%s): %s", tb_id, path, exc)
            failures.append(
                TreebankOutcome(treebank_id=tb_id, language_code=lang, status="failed", error=str(exc))
            )

    kept, excluded_list = apply_exclusions(treebanks, config.exclusions)
    excl_by_id: dict[str, tuple[Exclusion, ...]] = {tb.id: exc for tb, exc in excluded_list}

    payloads = [
        (tb, unavailable_measures(excl_by_id.get(tb.id, ())), config) for tb in treebanks
    ]
    if config.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_measure_task, payloads))
    else:
        outcomes = [_measure_task(p) for p in payloads]
    for outcome in outcomes:
        outcome.exclusions = excl_by_id.get(outcome.treebank_id, ())

    by_id = {o.treebank_id: o for o in outcomes}
    by_id.update({o.treebank_id: o for o in failures})
    ordered = [by_id[tb_id] for tb_id, _, _ in entries]

    result = MeasureRunResult(ordered, config.out_dir, config.sample.seed)
    _write_measure_outputs(result, config)
    return result


def _exclusions_cell(exclusions: tuple[Exclusion, ...]) -> str:
    if not exclusions:
        return "-"
    return ";".join(f"{e.reason}:{'+'.join(e.measures)}" for e in exclusions)


def _write_measure_outputs(result: MeasureRunResult, config: RunConfig):
    meta = {
        "generator": "morphcomplex",
        "seed": config.sample.seed,
        "target_tokens": config.sample.target_tokens,
        "repetitions": config.sample.repetitions,
        "compressor": COMPRESSOR_SETTING,
    }
    rows: list[list[str]] = []
    for outcome in result.outcomes:
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
        os.path.join(result.out_dir, MEASURES_TSV),
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
        for o in result.outcomes
    ]
    _write_tsv(
        os.path.join(result.out_dir, TREEBANKS_TSV),
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
            "step": o.ia.params.step,
            "mean_accuracy": o.ia.mean_accuracy,
            "fold_accuracies": list(o.ia.fold_accuracies),
            "n_draws": o.ia.n_draws,
        }
        for o in result.outcomes
        if o.ia is not None
    }
    with open(os.path.join(result.out_dir, IA_PARAMS_JSON), "w", encoding="utf-8") as f:
        json.dump({"seed": config.sample.seed, "treebanks": ia_params}, f, indent=2, sort_keys=True)
        f.write("\n")

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
            "step_range": list(config.ia_search.step_range),
        },
        "wals_rows": config.wals_rows,
    }
    with open(os.path.join(result.out_dir, RUN_META_JSON), "w", encoding="utf-8") as f:
        json.dump(run_meta, f, indent=2, sort_keys=True)
        f.write("\n")


def read_measure_matrix(out_dir: str) -> tuple[MeasureMatrix, dict[str, str], int]:
    """Rebuild the treebank-by-measure matrix from the measure stage TSVs.

    Returns the matrix, a treebank-to-language map, and the run seed.
    """
    meta, _, rows = _read_tsv(os.path.join(out_dir, MEASURES_TSV))
    seed = int(meta.get("seed", "0"))
    cells: dict[tuple[str, str], float] = {}
    tb_order: list[str] = []
    present: set[str] = set()
    for row in rows:
        tb_id, measure, mean = row[0], row[1], row[2]
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
    pca_rows: tuple[str, ...]
    ridge_rows: list[dict[str, object]]
    errors: dict[str, str]
    out_dir: str


def _ridge_targets(
    matrix: MeasureMatrix,
    pca_result: PcaResult | None,
    pca_rows: tuple[str, ...],
) -> list[tuple[str, list[str], np.ndarray]]:
    """Yield (target name, row treebank ids, raw target values)."""
    targets: list[tuple[str, list[str], np.ndarray]] = []
    for j, measure in enumerate(matrix.measures):
        mask = matrix.available()[:, j]
        ids = [tb for tb, ok in zip(matrix.treebank_ids, mask) if ok]
        targets.append((measure, ids, matrix.values[mask, j]))
    if pca_result is not None:
        for k in range(pca_result.scores.shape[1]):
            targets.append((f"pc{k + 1}", list(pca_rows), pca_result.scores[:, k]))
    return targets


def run_analyze(out_dir: str, config: RunConfig) -> AnalyzeResult:
    """Correlations, PCA and WALS ridge regression over the measure TSV."""
    from .wals import encode, load_wals

    matrix, languages, seed = read_measure_matrix(out_dir)
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
    pca_rows: tuple[str, ...] = ()
    complete = matrix.complete_rows()
    if int(complete.sum()) >= 2:
        try:
            z, _, _ = standardize(matrix.values[complete], matrix.measures)
            orient = matrix.measures.index("ttr") if "ttr" in matrix.measures else 0
            pca_result = pca(z, orient_column=orient)
            pca_rows = tuple(
                tb for tb, ok in zip(matrix.treebank_ids, complete) if ok
            )
        except ValueError as exc:
            errors["pca"] = str(exc)
    else:
        errors["pca"] = (
            f"only {int(complete.sum())} treebanks have all of {matrix.measures}; need >= 2"
        )
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
        score_header = ["treebank_id"] + [
            f"pc{k + 1}" for k in range(pca_result.scores.shape[1])
        ]
        score_rows = [
            [tb] + [_fmt(float(v)) for v in pca_result.scores[i]]
            for i, tb in enumerate(pca_rows)
        ]
        _write_tsv(os.path.join(out_dir, PCA_SCORES_TSV), meta, score_header, score_rows)

    ridge_rows: list[dict[str, object]] = []
    if config.wals_csv is not None:
        from .wals import WalsRecord

        with open(config.wals_csv, encoding="utf-8") as f:
            records = load_wals(f.read())
        # Casefold codes once so manifest and WALS export cannot disagree on
        # letter case; one fixed record list keeps columns identical for
        # every regression target.
        records = [WalsRecord(r.language_code.casefold(), r.values) for r in records]
        known_codes = {r.language_code for r in records}
        for name, row_ids, raw in _ridge_targets(matrix, pca_result, pca_rows):
            try:
                codes = [languages.get(tb, "").casefold() for tb in row_ids]
                keep = [i for i, c in enumerate(codes) if c in known_codes]
                if len(keep) < 3:
                    raise ValueError(f"only {len(keep)} rows matched WALS languages")
                kept_codes = [codes[i] for i in keep]
                kept_values = np.asarray([raw[i] for i in keep], dtype=float)
                if config.wals_rows == "per-language":
                    grouped: dict[str, list[float]] = {}
                    for code, value in zip(kept_codes, kept_values):
                        grouped.setdefault(code, []).append(float(value))
                    kept_codes = sorted(grouped)
                    kept_values = np.asarray([np.mean(grouped[c]) for c in kept_codes])
                    if len(kept_codes) < 3:
                        raise ValueError(
                            f"only {len(kept_codes)} languages matched WALS languages"
                        )
                design = encode(records, kept_codes)
                target, _, _ = standardize(kept_values, [name])
                report = ridge_loocv(design, target[:, 0])
                ridge_rows.append(
                    {
                        "target": name,
                        "n_rows": len(kept_codes),
                        "rmse": report.rmse,
                        "error_reduction": report.error_reduction,
                        "chosen_alphas": report.chosen_alphas,
                    }
                )
            except ValueError as exc:
                errors[f"ridge:{name}"] = str(exc)
        _write_tsv(
            os.path.join(out_dir, RIDGE_TSV),
            meta,
            ["target", "n_rows", "rmse", "error_reduction", "chosen_alphas"],
            [
                [
                    str(r["target"]),
                    str(r["n_rows"]),
                    _fmt(float(r["rmse"])),
                    _fmt(float(r["error_reduction"])),
                    ";".join(_fmt(a) for a in r["chosen_alphas"]),
                ]
                for r in ridge_rows
            ],
        )

    with open(os.path.join(out_dir, ANALYZE_META_JSON), "w", encoding="utf-8") as f:
        json.dump(
            {
                "seed": seed,
                "errors": errors,
                "n_pca_rows": len(pca_rows),
                "wals_rows": config.wals_rows,
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    for name, message in errors.items():
        log.warning("analysis %s skipped: %s", name, message)
    return AnalyzeResult(correlations, pca_result, pca_rows, ridge_rows, errors, out_dir)


def run_plot(out_dir: str) -> list[str]:
    """Render SVG figures from the analysis TSVs; returns written paths."""
    written: list[str] = []
    matrix, _, seed = read_measure_matrix(out_dir)
    svg = svgplot.measure_panels(matrix, seed=seed)
    path = os.path.join(out_dir, MEASURES_SVG)
    with open(path, "w", encoding="utf-8") as f:
        f.write(svg)
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
            with open(path, "w", encoding="utf-8") as f:
                f.write(svg)
            written.append(path)

    ridge_path = os.path.join(out_dir, RIDGE_TSV)
    if os.path.exists(ridge_path):
        _, _, rows = _read_tsv(ridge_path)
        if rows:
            names = [r[0] for r in rows]
            values = [float(r[3]) for r in rows]
            svg = svgplot.error_reduction_bars(names, values, seed=seed)
            path = os.path.join(out_dir, WALS_ERROR_SVG)
            with open(path, "w", encoding="utf-8") as f:
                f.write(svg)
            written.append(path)
    return written
