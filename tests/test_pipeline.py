"""End-to-end runs of the command line over a small synthetic release."""

import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morphcomplex import cli, measures, pipeline
from morphcomplex.analysis import pca, standardize
from morphcomplex.config import RunConfig
from morphcomplex.measures import ALL_MEASURES
from morphcomplex.wals import MORPHOLOGY_FEATURES, encode, load_wals

from synthdata import conllu_text, suffixing_sentences
from test_analysis import nested_loo_reference

N_TREEBANKS = 10  # more rows than measures, so no principal component is degenerate

# Mean -IA accuracy per treebank for the release below.  The learner's
# weights are integers, so these do not depend on the platform's rounding.
PINNED_IA_ACCURACY = {
    "tb0": 0.9743589743589745,
    "tb1": 0.9841269841269842,
    "tb2": 0.98989898989899,
    "tb3": 0.9670731707317074,
    "tb4": 0.944944944944945,
    "tb5": 0.926892109500805,
    "tb6": 0.9761904761904763,
    "tb7": 1.0,
    "tb8": 0.9916666666666667,
    "tb9": 0.9841269841269842,
}

# SHA-256 of every output of run-all on the release.  A change that moves them on
# purpose updates these digests and says why.
PINNED_DIGESTS = {
    "measures.tsv": "114d1565b991afd7f6d5a96db45b4a8783614634fe19063b02b7f46675db1e9b",
    "ia_params.json": "bf346c769c9d0d7df4532d45d1dd850e091ab2f488ba23db62a74a4035261637",
    "treebanks.tsv": "322eacc18a201f1b4af263617c2ec427cf83285914592ea5a9a65e79b00d492e",
    "run_meta.json": "71bf5cc8c276b713a0d9520af8a1eef7e124eb216039e81c0a2297ad83ba8686",
    "correlations.tsv": "03305353f4582ca51892e79c10075c9ee51123e94765ef57a4b7e370a507ff8e",
    "pca.tsv": "47a64130f836685bd3b7be1f4130d00f6ff5c52342a8ab85e60b79142f1e07c6",
    "pca_scores.tsv": "77e4a0ea46ba1eada989e9a0a0687d0919a06e74245533f88013c3deff04e3d5",
    "ridge.tsv": "41f6aaea3dac12c6ed22f090ad837b10332d1e25593a1dd06dc092f3094ec267",
    "analyze_meta.json": "63feb3c07ef1309bc1834807abaa4041e5cbb2838bce51f12035c6239c73e781",
    "measures.svg": "0a98b655d1c36e2866f92ab575c6515cc47de61f8ec59dd18b097d07fc02f974",
    "pca.svg": "2c5a02c2f05e2afc988126b9aa080ec624052812e2370e0e55621e30a1e2b5dc",
    "wals_error.svg": "841ea23e0fb52355aa940287a54a5a039bb3ed2dcc0ac9adbc3c6f706d99f12f",
}


def write_wals(path, languages):
    rng = np.random.default_rng(0)
    wals = ["iso_code," + ",".join(MORPHOLOGY_FEATURES)]
    for lang in sorted(set(languages)):
        values = rng.integers(0, 4, size=len(MORPHOLOGY_FEATURES))  # 0: missing
        wals.append(",".join([lang] + [str(v) if v else "" for v in values]))
    path.write_text("\n".join(wals) + "\n", encoding="utf-8")


def write_release(root):
    """Treebanks, manifest, WALS CSV and run config; returns the config path."""
    manifest = []
    languages = []
    for i in range(N_TREEBANKS):
        sentences = suffixing_sentences(
            seed=i, n_lemmas=20 + 7 * i, n_cells=2 + i % 6, n_keys=3 + i % 4, n_tokens=400
        )
        path = root / f"tb{i}.conllu"
        path.write_text(conllu_text(sentences), encoding="utf-8")
        lang = f"l{i % 8}"  # two languages have two treebanks
        manifest.append(f"tb{i}\t{lang}\t{path.name}")
        languages.append(lang)
    (root / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    write_wals(root / "wals.csv", languages)
    config = root / "run.cfg"
    config.write_text(
        "manifest = manifest.tsv\nout = out\nwals = wals.csv\n"
        "target_tokens = 200\nrepetitions = 2\nseed = 7\nia_draws = 1\n",
        encoding="utf-8",
    )
    return str(config)


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    """One run-all over the release; records every ridge_loocv input."""
    root = tmp_path_factory.mktemp("release")
    config = write_release(root)
    calls = []
    original = pipeline.ridge_loocv

    def recording(design, targets, *args, **kwargs):
        calls.append((np.array(design), np.array(targets)))
        return original(design, targets, *args, **kwargs)

    pipeline.ridge_loocv = recording
    try:
        code = cli.main(["run-all", "--config", config])
    finally:
        pipeline.ridge_loocv = original
    return root, config, code, calls


def test_run_all_writes_every_output(release):
    root, _, code, _ = release
    assert code == 0
    written = sorted(os.listdir(root / "out"))
    assert written == sorted(
        [
            "measures.tsv", "treebanks.tsv", "run_meta.json", "ia_params.json",
            "correlations.tsv", "pca.tsv", "pca_scores.tsv", "ridge.tsv",
            "analyze_meta.json", "measures.svg", "pca.svg", "wals_error.svg",
        ]
    )
    assert written == sorted(n for names in pipeline._STAGE_OUTPUTS.values() for n in names)
    meta = json.loads((root / "out" / "analyze_meta.json").read_text(encoding="utf-8"))
    assert meta["errors"] == {}
    assert meta["n_pca_rows"] == N_TREEBANKS


def test_ridge_rows_match_solve_reference(release):
    root, _, _, calls = release
    _, header, rows = pipeline._read_tsv(str(root / "out" / "ridge.tsv"))
    targets = list(ALL_MEASURES) + [f"pc{k + 1}" for k in range(len(ALL_MEASURES))]
    assert [row[0] for row in rows] == targets
    [(design, matrix)] = calls  # every target has the same 10 rows: one fit
    assert matrix.shape == (N_TREEBANKS, len(rows))
    for row, target in zip(rows, matrix.T):
        record = dict(zip(header, row))
        assert int(record["n_rows"]) == N_TREEBANKS
        _, _, rmse = nested_loo_reference(design, target)
        assert record["rmse"] == f"{rmse:.12g}"


def analyze_cut_measures(release, tmp_path, cut, config_lines="", wals=None):
    """Run ``analyze`` on the release's measures.tsv cut to ``cut(text)``,
    with ``wals`` (default: the release's WALS CSV) and ``config_lines``
    added to the run configuration; returns the exit code and the output
    directory."""
    root, _, _, _ = release
    wals = wals or root / "wals.csv"
    out = tmp_path / "out"
    out.mkdir()
    for name in ("measures.tsv", "treebanks.tsv"):
        (out / name).write_bytes((root / "out" / name).read_bytes())
    measures = (out / "measures.tsv").read_text(encoding="utf-8")
    (out / "measures.tsv").write_text(cut(measures), encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(
        f"manifest = {root / 'manifest.tsv'}\nout = {out}\nwals = {wals}\n"
        + config_lines,
        encoding="utf-8",
    )
    return cli.main(["analyze", "--config", str(config)]), out


def reference_ridge_rows(out, wals_csv, per_language=False):
    """``ridge.tsv`` rows (target, n_rows, rmse, chosen_alphas) from one
    ``nested_loo_reference`` per target over that target's own rows."""
    matrix, languages, _ = pipeline.read_measure_matrix(str(out))
    ids = np.array(matrix.treebank_ids)
    available, complete = matrix.available(), matrix.complete_rows()
    z = standardize(matrix.values[complete])
    scores = pca(z, orient_column=matrix.measures.index("ttr")).scores
    targets = [
        (m, ids[available[:, j]], matrix.values[available[:, j], j])
        for j, m in enumerate(matrix.measures)
    ]
    targets += [(f"pc{k + 1}", ids[complete], scores[:, k]) for k in range(scores.shape[1])]
    records = load_wals(wals_csv.read_text(encoding="utf-8"))
    rows = []
    for name, tb_ids, values in targets:
        codes = [languages[tb] for tb in tb_ids]
        if per_language:
            grouped = {}
            for code, value in zip(codes, values):
                grouped.setdefault(code, []).append(value)
            codes = sorted(grouped)
            values = np.array([np.mean(grouped[code]) for code in codes])
        y = (values - values.mean()) / values.std()
        chosen, _, rmse = nested_loo_reference(encode(records, codes).matrix, y)
        rows.append([name, str(len(codes)), f"{rmse:.12g}", ";".join(f"{a:.12g}" for a in chosen)])
    return rows


def ridge_tsv_rows(out):
    """(target, n_rows, rmse, chosen_alphas) of each ``ridge.tsv`` row."""
    return [[r[0], r[1], r[2], r[4]] for r in pipeline._read_tsv(str(out / "ridge.tsv"))[2]]


def test_per_language_rows_are_language_means(release, tmp_path):
    root, _, _, _ = release
    code, out = analyze_cut_measures(
        release, tmp_path, lambda text: text, config_lines="wals_rows = per-language\n"
    )
    assert code == 0
    rows = ridge_tsv_rows(out)
    assert {r[1] for r in rows} == {"8"}  # 10 treebanks in 8 languages
    assert rows == reference_ridge_rows(out, root / "wals.csv", per_language=True)


def mark_unavailable(text, cells):
    """``measures.tsv`` text with the given (treebank, measure) cells made NA."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key = line.split("\t")[:2]
        if tuple(key) in cells:
            lines[i] = "\t".join(key + ["NA", "NA", "0", "false"])
    return "\n".join(lines) + "\n"


def test_one_ridge_fit_per_row_set(release, tmp_path, monkeypatch):
    """ws lacks tb2 and is lacks tb3, so the targets fall into four row sets:
    10 rows (six measures), 9 (ws), 9 (is) and 8 (every component)."""
    root, _, _, _ = release
    shapes = []
    original = pipeline.ridge_loocv

    def recording(design, targets, *args, **kwargs):
        shapes.append(np.shape(targets))
        return original(design, targets, *args, **kwargs)

    monkeypatch.setattr(pipeline, "ridge_loocv", recording)
    code, out = analyze_cut_measures(
        release, tmp_path, lambda text: mark_unavailable(text, {("tb2", "ws"), ("tb3", "is")})
    )
    assert code == 0
    rows = ridge_tsv_rows(out)
    n_components = len(pipeline._read_tsv(str(out / "pca_scores.tsv"))[1]) - 1
    pcs = [f"pc{k + 1}" for k in range(n_components)]
    assert [r[0] for r in rows] == list(ALL_MEASURES) + pcs
    assert {r[0]: r[1] for r in rows} == {
        **{m: "10" for m in ALL_MEASURES}, "ws": "9", "is": "9", **{pc: "8" for pc in pcs}
    }
    assert sorted(shapes) == [(8, n_components), (9, 1), (9, 1), (10, len(ALL_MEASURES) - 2)]
    assert rows == reference_ridge_rows(out, root / "wals.csv")


def test_wals_csv_with_bom_is_read(release, tmp_path):
    root, _, _, _ = release
    wals = tmp_path / "bom.csv"
    wals.write_bytes(b"\xef\xbb\xbf" + (root / "wals.csv").read_bytes())
    code, out = analyze_cut_measures(release, tmp_path, lambda text: text, wals=wals)
    assert code == 0
    assert (out / "ridge.tsv").read_bytes() == (root / "out" / "ridge.tsv").read_bytes()


def test_truncated_measures_tsv_fails_analyze_cleanly(release, tmp_path):
    code, out = analyze_cut_measures(release, tmp_path, lambda text: text[: len(text) // 2])
    assert code == 1
    with pytest.raises(ValueError, match=r"measures\.tsv: line \d+: expected 6 columns"):
        pipeline.read_measure_matrix(str(out))


def assert_same_outputs(out, other):
    assert sorted(os.listdir(other)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        assert (other / name).read_bytes() == (out / name).read_bytes(), name


def test_jobs_do_not_change_outputs(release):
    root, config, _, _ = release
    assert cli.main(["run-all", "--config", config, "--jobs", "2", "--out", str(root / "out2")]) == 0
    assert_same_outputs(root / "out", root / "out2")


def test_neg_ia_pinned(release):
    root, _, _, _ = release
    ia = json.loads((root / "out" / "ia_params.json").read_text(encoding="utf-8"))["treebanks"]
    assert {tb: r["mean_accuracy"] for tb, r in ia.items()} == PINNED_IA_ACCURACY
    _, _, rows = pipeline._read_tsv(str(root / "out" / "measures.tsv"))
    cells = {row[0]: row[2] for row in rows if row[1] == "neg_ia"}
    assert cells == {tb: f"{-acc:.12g}" for tb, acc in PINNED_IA_ACCURACY.items()}


@pytest.mark.parametrize(
    "jobs, hash_seed", [(1, None), (2, None), (2, "1")], ids=["1", "2", "2-PYTHONHASHSEED=1"]
)
def test_output_digests_pinned(release, tmp_path, jobs, hash_seed):
    """In this process, and in a fresh interpreter under another hash seed:
    every test and every forked worker shares this session's seed, so only a
    fresh interpreter shows an output that depends on str hash order."""
    _, config, _, _ = release
    out = tmp_path / "out"
    args = ["run-all", "--config", config, "--jobs", str(jobs), "--out", str(out)]
    if hash_seed is None:
        assert cli.main(args) == 0
    else:
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-m", "morphcomplex.cli", *args],
                       check=True, env=env, capture_output=True, timeout=300)
    digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in PINNED_DIGESTS}
    assert digests == PINNED_DIGESTS


def test_no_step_hyperparameter_in_outputs(release):
    root, _, _, _ = release
    ia = json.loads((root / "out" / "ia_params.json").read_text(encoding="utf-8"))["treebanks"]
    assert all(set(r) == {"ngram_order", "epochs", "mean_accuracy", "fold_accuracies", "n_draws"}
               for r in ia.values())
    meta = json.loads((root / "out" / "run_meta.json").read_text(encoding="utf-8"))
    assert set(meta["ia_search"]) == {"n_folds", "n_draws", "ngram_range", "epoch_range"}


def test_measures_tsv_cut_inside_available_fails_analyze(release, tmp_path):
    code, out = analyze_cut_measures(
        release, tmp_path, lambda text: text[: text.index("\ttr") + len("\ttr")]
    )
    assert code == 1
    with pytest.raises(ValueError, match=r"measures\.tsv: row tb0/ttr: available is 'tr'"):
        pipeline.read_measure_matrix(str(out))


@pytest.mark.parametrize(
    "value, cell",
    [
        (None, "NA"), (math.nan, "NA"), (np.float64("nan"), "NA"), (True, "true"),
        (np.bool_(False), "false"), (7, "7"), (np.int64(7), "7"), (0.1 + 0.2, "0.3"),
        (1e-20, "1e-20"), (-0.0, "-0"), ("x", "x"),
    ],
)
def test_cell_format(value, cell):
    assert pipeline._cell(value) == cell


def test_no_ridge_row_for_rounding_level_component(tmp_path):
    """Six complete treebanks and eight measures leave five components."""
    ids = [f"tb{i}" for i in range(6)]
    values = np.random.default_rng(3).normal(size=(len(ids), len(ALL_MEASURES)))
    rows = [
        [tb, m, repr(float(values[i, j])), "0", "1", "true"]
        for i, tb in enumerate(ids)
        for j, m in enumerate(ALL_MEASURES)
    ]
    pipeline._write_tsv(
        str(tmp_path / "measures.tsv"), {"seed": 0},
        ["treebank_id", "measure", "mean", "stddev", "n_repetitions", "available"], rows,
    )
    pipeline._write_tsv(
        str(tmp_path / "treebanks.tsv"), {"seed": 0}, ["treebank_id", "language_code"],
        [[tb, f"l{i}"] for i, tb in enumerate(ids)],
    )
    write_wals(tmp_path / "wals.csv", [f"l{i}" for i in range(len(ids))])
    config = RunConfig(manifest="", out=str(tmp_path), wals=str(tmp_path / "wals.csv"))
    assert pipeline.run_analyze(str(tmp_path), config) == {}
    _, _, components = pipeline._read_tsv(str(tmp_path / "pca.tsv"))
    assert len(components) == 5
    # 12 printed digits carry each ratio to within 1e-12 of its value.
    assert sum(float(r[1]) for r in components) == pytest.approx(1.0, abs=1e-11)
    _, _, ridge = pipeline._read_tsv(str(tmp_path / "ridge.tsv"))
    assert [r[0] for r in ridge] == list(ALL_MEASURES) + [f"pc{k}" for k in range(1, 6)]


def test_rerun_without_wals_removes_stale_outputs(tmp_path):
    config = write_release(tmp_path)
    assert cli.main(["run-all", "--config", config]) == 0
    out = tmp_path / "out"
    assert (out / "ridge.tsv").exists() and (out / "wals_error.svg").exists()
    no_wals = tmp_path / "no_wals.cfg"
    lines = Path(config).read_text(encoding="utf-8").splitlines(keepends=True)
    no_wals.write_text("".join(x for x in lines if not x.startswith("wals")), encoding="utf-8")
    assert cli.main(["run-all", "--config", str(no_wals), "--seed", "8"]) == 0
    assert not (out / "ridge.tsv").exists()
    assert not (out / "wals_error.svg").exists()
    assert (out / "pca.tsv").exists() and (out / "pca.svg").exists()
    for name in os.listdir(out):
        if name.endswith(".tsv"):
            assert pipeline._read_tsv(str(out / name))[0]["seed"] == "8", name


def test_plot_removes_figures_whose_tables_are_gone(release, tmp_path):
    root, _, _, _ = release
    out = tmp_path / "out"
    out.mkdir()
    for name in ("measures.tsv", "treebanks.tsv", "pca.svg", "wals_error.svg"):
        (out / name).write_bytes((root / "out" / name).read_bytes())
    assert pipeline.run_plot(str(out)) == [str(out / "measures.svg")]
    assert sorted(os.listdir(out)) == ["measures.svg", "measures.tsv", "treebanks.tsv"]


def test_measure_removes_every_later_stages_outputs(release, tmp_path):
    """``plot`` after a new ``measure`` draws no figure from the earlier run's analysis."""
    root, config, _, _ = release
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    assert cli.main(["measure", "--config", config, "--out", str(out), "--seed", "8"]) == 0
    measured = ["ia_params.json", "measures.tsv", "run_meta.json", "treebanks.tsv"]
    assert sorted(os.listdir(out)) == measured
    assert pipeline.run_plot(str(out)) == [str(out / "measures.svg")]
    assert sorted(os.listdir(out)) == sorted(measured + ["measures.svg"])


def test_stopped_measure_leaves_nothing_for_analyze(release, tmp_path, monkeypatch):
    root, config, _, _ = release
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    original, calls = pipeline._measure_one, []

    def stopped_on_second(entry, config):
        calls.append(entry)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return original(entry, config)

    monkeypatch.setattr(pipeline, "_measure_one", stopped_on_second)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["measure", "--config", config, "--out", str(out), "--seed", "8"])
    assert os.listdir(out) == []
    assert cli.main(["analyze", "--config", config, "--out", str(out)]) == 1
    assert os.listdir(out) == []


def write_failure_release(root):
    """Treebanks that take every per-treebank path of the measure stage.

    ``few`` has two feature keys, ``zh`` is listed in ``script_exclude``,
    ``bad`` is malformed on line 2 and ``boom`` has a measure that raises
    (see ``failing_msp``).  Returns the config path.
    """
    n_keys = {"ok0": 3, "few": 2, "bad": 0, "zh": 4, "boom": 3, "ok1": 5}
    manifest = []
    for i, (tb_id, keys) in enumerate(n_keys.items()):
        path = root / f"{tb_id}.conllu"
        if tb_id == "bad":
            path.write_text("# sent_id = 1\n1\tonly-two\n", encoding="utf-8")
        else:
            sentences = suffixing_sentences(
                seed=i, n_lemmas=25, n_cells=4, n_keys=keys, n_tokens=400
            )
            path.write_text(conllu_text(sentences), encoding="utf-8")
        manifest.append(f"{tb_id}\tl{i}\t{path.name}")
    (root / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    config = root / "run.cfg"
    config.write_text(
        "manifest = manifest.tsv\nout = out\nscript_exclude = zh\n"
        "target_tokens = 200\nrepetitions = 2\nseed = 7\nia_draws = 1\n",
        encoding="utf-8",
    )
    return str(config)


original_msp = measures.msp


def failing_msp(sample):
    if sample.treebank.id == "boom":
        raise ValueError("msp broke")
    return original_msp(sample)


@pytest.fixture(scope="module")
def failure_release(tmp_path_factory):
    """``run-all`` over ``write_failure_release`` at ``--jobs 1`` and ``--jobs 2``.

    Pool workers are forked from this process, so they see the patched ``msp``.
    """
    root = tmp_path_factory.mktemp("failures")
    config = write_failure_release(root)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "msp", failing_msp)
        codes = [
            cli.main(["run-all", "--config", config, "--jobs", str(jobs), "--out", str(root / out)])
            for jobs, out in ((1, "out"), (2, "out2"))
        ]
    return root, config, codes


def test_failures_stay_with_their_treebank(failure_release):
    root, _, codes = failure_release
    assert codes == [2, 2]
    meta, _, rows = pipeline._read_tsv(str(root / "out" / "treebanks.tsv"))
    assert meta["seed"] == "7"
    assert [(r[0], r[2], r[6], r[7]) for r in rows] == [
        ("ok0", "ok", "-", "-"),
        ("few", "ok", "no-morph-features:is+mfh+neg_ia", "-"),
        ("bad", "failed", "-", "ConlluParseError: line 2: expected 10 columns, got 2"),
        ("zh", "ok", "non-alphabetic-script:ws", "-"),
        ("boom", "failed", "-",
         "MeasureError: measure 'msp' failed on repetition 0 of boom: ValueError: msp broke"),
        ("ok1", "ok", "-", "-"),
    ]
    counts = {r[0]: [int(c) for c in r[3:6]] for r in rows}
    assert counts["bad"] == [0, 0, 0]
    assert counts["boom"] == [50, 400, 3]
    assert counts["few"][2] == 2


def test_excluded_measures_are_na(failure_release):
    root, _, _ = failure_release
    meta, _, rows = pipeline._read_tsv(str(root / "out" / "measures.tsv"))
    assert meta["seed"] == "7"
    assert [r[0] for r in rows[:: len(ALL_MEASURES)]] == ["ok0", "few", "zh", "ok1"]
    unavailable = {(r[0], r[1]) for r in rows if r[5] == "false"}
    assert unavailable == {("few", "is"), ("few", "mfh"), ("few", "neg_ia"), ("zh", "ws")}
    for row in rows:
        if (row[0], row[1]) in unavailable:
            assert row[2:] == ["NA", "NA", "0", "false"]
    ia = json.loads((root / "out" / "ia_params.json").read_text(encoding="utf-8"))["treebanks"]
    assert sorted(ia) == ["ok0", "ok1", "zh"]


def test_failures_do_not_depend_on_jobs(failure_release):
    root, _, _ = failure_release
    assert_same_outputs(root / "out", root / "out2")


def test_each_failure_logged_once(failure_release, tmp_path, monkeypatch, caplog):
    root, config, _ = failure_release
    monkeypatch.setattr(measures, "msp", failing_msp)
    with caplog.at_level(logging.INFO):
        assert cli.main(["run-all", "--config", config, "--out", str(tmp_path / "out")]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 2
    assert "bad" in errors[0] and str(root / "bad.conllu") in errors[0]
    assert "line 2: expected 10 columns, got 2" in errors[0]
    assert "boom" in errors[1] and "msp broke" in errors[1]


def test_failure_traceback_logged_with_verbose(failure_release, tmp_path, monkeypatch, caplog):
    _, config, _ = failure_release
    monkeypatch.setattr(measures, "msp", failing_msp)
    out = tmp_path / "out"
    with caplog.at_level(logging.DEBUG):
        assert cli.main(["-v", "run-all", "--config", config, "--jobs", "1", "--out", str(out)]) == 2
    [boom] = [r for r in caplog.records if r.levelno >= logging.ERROR and "boom" in r.getMessage()]
    assert boom.exc_info is not None
    assert "failing_msp" in logging.Formatter().formatException(boom.exc_info)
    rows = pipeline._read_tsv(str(out / "treebanks.tsv"))[2]
    assert [r[7] for r in rows if r[0] == "boom"] == [
        "MeasureError: measure 'msp' failed on repetition 0 of boom: ValueError: msp broke"
    ]


def test_invalid_utf8_fails_only_its_treebank(tmp_path):
    config = write_release(tmp_path)
    with open(config, "a", encoding="utf-8") as f:
        f.write("measures = ttr,wh\n")
    path = tmp_path / "tb3.conllu"
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    assert cli.main(["run-all", "--config", config]) == 2
    rows = pipeline._read_tsv(str(tmp_path / "out" / "treebanks.tsv"))[2]
    assert [r[7] for r in rows if r[2] != "ok"] == [
        "ConlluParseError: line 3: invalid UTF-8 (invalid start byte)"
    ]
    assert [r[0] for r in rows if r[2] == "ok"] == [f"tb{i}" for i in range(N_TREEBANKS) if i != 3]


def fresh_python(code, *args, env=None):
    """Run ``code`` in a fresh interpreter with ``src`` on its path; return its stdout."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**(os.environ if env is None else env), "PYTHONPATH": os.path.join(repo, "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True, env=env, timeout=300,
    )
    return out.stdout


def loaded_modules(code, *args):
    """Run ``code`` in a fresh interpreter; return the sorted ``sys.modules`` names it prints."""
    return fresh_python(code + "; print(*sorted(sys.modules))", *args).split()


def test_cli_import_loads_no_scipy_urllib_or_process_pool():
    """scipy is only the tests' reference, urllib came with an XML escape,
    and the pool's module is needed only when ``jobs > 1``."""
    modules = loaded_modules("import sys, morphcomplex.cli")
    assert "morphcomplex.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert "urllib.request" not in modules
    assert "concurrent.futures.process" not in modules


def test_package_import_loads_no_numpy():
    """The package must pin OpenBLAS's threads before numpy loads, and every
    module of it, ``python -m morphcomplex.cli`` included, imports it first."""
    modules = loaded_modules("import sys, morphcomplex")
    assert "morphcomplex" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_import_pins_openblas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, morphcomplex.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, env=env).strip() == expected


def test_pipeline_import_pins_openblas_threads():
    """Library use of the pipeline, without the CLI, runs BLAS on one thread too."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = "import os, morphcomplex.pipeline; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, env=env).strip() == "1"


def test_run_all_without_neg_ia_loads_no_scipy(release, tmp_path):
    """Correlations, PCA and ridge run on numpy and ``math`` alone."""
    root, _, _, _ = release
    config = tmp_path / "run.cfg"
    config.write_text(
        f"manifest = {root / 'manifest.tsv'}\nwals = {root / 'wals.csv'}\nout = out\n"
        "target_tokens = 200\nrepetitions = 2\nseed = 7\nmeasures = ttr,ws,wh,lh,msp,is,mfh\n",
        encoding="utf-8",
    )
    code = "import sys; from morphcomplex import cli; assert cli.main(sys.argv[1:]) == 0"
    modules = loaded_modules(code, "run-all", "--config", str(config), "--jobs", "1")
    assert {"correlations.tsv", "pca.tsv", "ridge.tsv"} <= set(os.listdir(tmp_path / "out"))
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_run_all_with_neg_ia_loads_no_scipy(release, tmp_path):
    """All eight measures, -IA's learner included, and the analyses run
    on numpy and ``math`` alone."""
    root, _, _, _ = release
    config = tmp_path / "run.cfg"
    config.write_text(
        f"manifest = {root / 'manifest.tsv'}\nwals = {root / 'wals.csv'}\nout = out\n"
        f"target_tokens = 200\nrepetitions = 2\nseed = 7\nia_draws = 1\n"
        f"measures = {','.join(ALL_MEASURES)}\n",
        encoding="utf-8",
    )
    code = "import sys; from morphcomplex import cli; assert cli.main(sys.argv[1:]) == 0"
    modules = loaded_modules(code, "run-all", "--config", str(config), "--jobs", "1")
    assert {"correlations.tsv", "pca.tsv", "ridge.tsv"} <= set(os.listdir(tmp_path / "out"))
    ia = json.loads((tmp_path / "out" / "ia_params.json").read_text(encoding="utf-8"))["treebanks"]
    assert {tb: r["mean_accuracy"] for tb, r in ia.items()} == PINNED_IA_ACCURACY
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_run_all_loads_no_numpy_ma(release, tmp_path):
    """``np.unique`` without a ``return_*`` argument imports ``numpy.ma``
    (numpy 2.4), 15-20 ms of CPU in each process and pool worker.  A run
    of every stage and all eight measures loads nothing of it beyond what
    ``import numpy`` itself loads."""
    _, config, _, _ = release
    code = "import sys; from morphcomplex import cli; assert cli.main(sys.argv[1:]) == 0"
    out = str(tmp_path / "out")
    modules = loaded_modules(code, "run-all", "--config", config, "--jobs", "1", "--out", out)
    assert "wals_error.svg" in os.listdir(out)
    assert "numpy.ma" not in set(modules) - set(loaded_modules("import sys, numpy"))


def test_unknown_script_exclude_id_rejected(tmp_path, caplog):
    config = write_release(tmp_path)
    with open(config, "a", encoding="utf-8") as f:
        f.write("script_exclude = tb1, zz9, tb10\n")
    assert cli.main(["run-all", "--config", config]) == 1
    [message] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert "script_exclude" in message and "['tb10', 'zz9']" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("wals", ["", "."], ids=["blank", "directory"])
def test_wals_path_must_be_a_file(tmp_path, caplog, wals):
    """Checked before the first treebank is measured, not by ``analyze``
    after the whole measure stage."""
    config = write_release(tmp_path)
    text = (tmp_path / "run.cfg").read_text(encoding="utf-8").replace("wals.csv", wals)
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    assert cli.main(["run-all", "--config", config]) == 1
    [message] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert message.startswith("config key wals: not a file: ")
    assert not (tmp_path / "out").exists()


def test_bad_wals_csv_fails_analyze_before_any_output(release, tmp_path):
    root, _, _, _ = release
    wals = tmp_path / "no_22A.csv"
    wals.write_text((root / "wals.csv").read_text(encoding="utf-8").replace("22A", "22X"))
    code, out = analyze_cut_measures(release, tmp_path, lambda text: text, wals=wals)
    assert code == 1
    assert sorted(os.listdir(out)) == ["measures.tsv", "treebanks.tsv"]


def test_duplicate_treebank_id_rejected(tmp_path, caplog):
    config = write_release(tmp_path)
    manifest = tmp_path / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace("tb3\t", "tb1\t")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["run-all", "--config", config]) == 1
    [message] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert str(manifest) in message and "'tb1'" in message
    assert "line 2" in message and "line 4" in message
    assert not (tmp_path / "out").exists()


OVERRIDES = ["--seed", "1", "--jobs", "2", "--target-tokens", "30", "--repetitions", "4"]


@pytest.mark.parametrize("command", ["analyze", "plot"])
@pytest.mark.parametrize("flag", OVERRIDES[::2])
def test_analyze_and_plot_reject_run_overrides(command, flag, capsys):
    """Only the measure stage reads these; the later stages read the seed from its output."""
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--config", "run.cfg", flag, "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_help_lists_only_config_and_out(capsys):
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--config", "--out", "--help"}


@pytest.mark.parametrize("command", ["measure", "run-all"])
def test_measure_commands_take_every_override(command, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("manifest = manifest.tsv\nout = out\n", encoding="utf-8")
    args = cli.build_parser().parse_args([command, "--config", str(config), "--out", "o", *OVERRIDES])
    loaded = cli._load(args)
    assert (loaded.out, loaded.jobs) == ("o", 2)
    assert (loaded.seed, loaded.target_tokens, loaded.repetitions) == (1, 30, 4)


def test_invalid_override_exits_1(tmp_path, caplog):
    config = write_release(tmp_path)
    assert cli.main(["measure", "--config", config, "--jobs", "0"]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        "jobs must be >= 1"
    ]
    assert not (tmp_path / "out").exists()


def test_tracer_wraps_every_layer(release, tmp_path):
    """The benchmark's tracer replaces functions by name in ``pipeline``,
    ``wals`` and the other modules; a renamed one loses its span."""
    _, config, _, _ = release
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(repo, "src")}
    result = tmp_path / "trace.json"
    subprocess.run(
        [
            sys.executable, os.path.join(repo, "perfbench", "tracer.py"), str(result), "--",
            "run-all", "--config", config, "--jobs", "1", "--out", str(tmp_path / "out"),
        ],
        check=True, env=env, capture_output=True, timeout=300,
    )
    trace = json.loads(result.read_text(encoding="utf-8"))
    assert trace["status"] == 0
    assert {span[0] for span in trace["spans"]} >= {
        "conllu.parse", "sampling.repetitions", "inflection.cross_validate",
        "analysis.correlation", "analysis.pca", "analysis.standardize", "analysis.ridge",
        "wals.load", "wals.encode", "svgplot",
    }
