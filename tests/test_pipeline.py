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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morphcomplex import cli, measures, pipeline
from morphcomplex.analysis import pca, standardize
from morphcomplex.config import RunConfig
from morphcomplex.conllu import parse_conllu
from morphcomplex.measures import ALL_MEASURES
from morphcomplex.wals import MORPHOLOGY_FEATURES, encode, load_wals

from synthdata import conllu_text, make_token, suffixing_sentences
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


def write_release(root, settings="", capitalize=False):
    """Treebanks, manifest, WALS CSV and run config with ``settings`` lines
    appended; returns the config path.  ``capitalize`` upper-cases each
    sentence's first letter."""
    manifest = []
    languages = []
    for i in range(N_TREEBANKS):
        sentences = suffixing_sentences(
            seed=i, n_lemmas=20 + 7 * i, n_cells=2 + i % 6, n_keys=3 + i % 4, n_tokens=400
        )
        if capitalize:
            sentences = [[replace(s[0], form=s[0].form.capitalize()), *s[1:]] for s in sentences]
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
        "target_tokens = 200\nrepetitions = 2\nseed = 7\nia_draws = 1\n" + settings,
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
    matrix, _ = pipeline.read_measure_matrix(str(out))
    languages = dict(row[:2] for row in pipeline._read_tsv(str(out / "treebanks.tsv"))[2])
    ids = np.array(matrix.treebank_ids)
    available, complete = matrix.available(), matrix.complete_rows()
    z = standardize(matrix.values[complete])
    scores = pca(z, orient_column=matrix.measures.index("ttr")).scores
    targets = [
        (m, ids[available[:, j]], matrix.values[available[:, j], j])
        for j, m in enumerate(matrix.measures)
    ]
    targets += [(f"pc{k + 1}", ids[complete], scores[:, k]) for k in range(scores.shape[1])]
    wals_table = load_wals(wals_csv.read_text(encoding="utf-8"))
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
        chosen, _, rmse = nested_loo_reference(encode(wals_table, codes).matrix, y)
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


def set_means(text, measure, mean):
    """``measures.tsv`` text with the mean of every ``measure`` row set to ``mean``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if cells[1:2] == [measure]:
            lines[i] = "\t".join([*cells[:2], mean, *cells[3:]])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "cut, errors",
    [
        (lambda text: mark_unavailable(text, {(f"tb{i}", "ttr") for i in range(1, N_TREEBANKS)}),
         {"pca": f"only 1 treebanks have all of {ALL_MEASURES}; need >= 2",
          "ridge:ttr": "only 1 rows matched WALS languages"}),
        (lambda text: set_means(text, "ws", "0.5"),
         {"pca": "zero variance in ws; cannot standardize",
          "ridge:ws": "zero variance in ws; cannot standardize"}),
    ],
    ids=["one-complete-treebank", "constant-measure"],
)
def test_skipped_analyses_are_recorded_and_the_rest_written(release, tmp_path, caplog, cut, errors):
    with caplog.at_level(logging.WARNING):
        code, out = analyze_cut_measures(release, tmp_path, cut)
    assert code == 0
    meta = json.loads((out / "analyze_meta.json").read_text(encoding="utf-8"))
    assert meta["errors"] == errors
    assert meta["n_pca_rows"] == 0
    assert sorted(os.listdir(out)) == [
        "analyze_meta.json", "correlations.tsv", "measures.tsv", "ridge.tsv", "treebanks.tsv"
    ]
    n_pairs = len(ALL_MEASURES) * (len(ALL_MEASURES) + 1) // 2
    assert len(pipeline._read_tsv(str(out / "correlations.tsv"))[2]) == 2 * n_pairs
    skipped = {name.removeprefix("ridge:") for name in errors}
    assert [r[0] for r in ridge_tsv_rows(out)] == [m for m in ALL_MEASURES if m not in skipped]
    for name, message in errors.items():
        assert f"analysis {name} skipped: {message}" in caplog.text


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


@pytest.mark.parametrize(
    "command, name, n_columns",
    [("analyze", "measures.tsv", 3), ("analyze", "treebanks.tsv", 1),
     ("plot", "pca.tsv", 1), ("plot", "ridge.tsv", 3)],
)
def test_tsv_missing_read_columns_fails_cleanly(
    release, tmp_path, caplog, command, name, n_columns
):
    """A TSV cut to its first ``n_columns`` columns, header and rows alike,
    fails the stage that reads it with an error naming the file."""
    root, _, _, _ = release
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    lines = (out / name).read_text(encoding="utf-8").splitlines()
    cut = [x if x.startswith("#") else "\t".join(x.split("\t")[:n_columns]) for x in lines]
    (out / name).write_text("\n".join(cut) + "\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"manifest = {root / 'manifest.tsv'}\nout = {out}\n", encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert cli.main([command, "--config", str(config)]) == 1
    assert f"{out / name}: header " in caplog.text


def test_wals_csv_that_is_not_utf8_fails_analyze_naming_it(release, tmp_path, caplog):
    root, _, _, _ = release
    wals = tmp_path / "latin1.csv"
    wals.write_bytes((root / "wals.csv").read_bytes() + b"x\xff,1\n")
    with caplog.at_level(logging.ERROR):
        code, out = analyze_cut_measures(release, tmp_path, lambda text: text, wals=wals)
    assert code == 1
    assert f"{wals}: not UTF-8 text: invalid start byte" in caplog.text
    assert sorted(os.listdir(out)) == ["measures.tsv", "treebanks.tsv"]


def copy_outputs_with(release, tmp_path, name, edit):
    """The release's outputs with ``name`` rewritten to ``edit(its lines)``,
    and a config that reads them; returns both paths."""
    root, _, _, _ = release
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    lines = (out / name).read_text(encoding="utf-8").splitlines()
    (out / name).write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"manifest = {root / 'manifest.tsv'}\nout = {out}\n", encoding="utf-8")
    return out, config


def first_row_cell_set(column, text):
    """An ``edit`` that sets ``column`` of the first row under the header to ``text``."""
    def edit(lines):
        row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        cells = lines[row].split("\t")
        cells[column] = text
        return [*lines[:row], "\t".join(cells), *lines[row + 1:]]
    return edit


def drop_seed_line(lines):
    """An ``edit`` that removes the ``# seed:`` line, so the seed is unknown, not 0."""
    return [line for line in lines if not line.startswith("# seed:")]


@pytest.mark.parametrize(
    "command, name, edit, where",
    [
        ("analyze", "measures.tsv", lambda lines: [x.replace("# seed: 7", "# seed: abc") for x in lines],
         "# seed: cannot read 'abc' as int"),
        ("analyze", "measures.tsv", drop_seed_line, "no '# seed:' line"),
        ("plot", "measures.tsv", drop_seed_line, "no '# seed:' line"),
        ("analyze", "measures.tsv", first_row_cell_set(2, "abc"),
         "row tb0/ttr: mean: cannot read 'abc' as float"),
        ("plot", "pca_scores.tsv", first_row_cell_set(2, "abc"), "row tb0: cannot read 'abc' as float"),
        ("plot", "pca.tsv", first_row_cell_set(1, "abc"), "component 1: cannot read 'abc' as float"),
        ("plot", "ridge.tsv", first_row_cell_set(3, "abc"), "row ttr: cannot read 'abc' as float"),
    ],
    ids=[
        "measures-seed", "measures-no-seed", "plot-no-seed", "measures-mean", "pca-scores",
        "pca-ratio", "ridge",
    ],
)
def test_unreadable_number_names_its_file_and_row(release, tmp_path, caplog, command, name, edit, where):
    out, config = copy_outputs_with(release, tmp_path, name, edit)
    with caplog.at_level(logging.ERROR):
        assert cli.main([command, "--config", str(config)]) == 1
    assert f"{out / name}: {where}" in caplog.text


def test_plot_rejects_pca_tsv_with_one_component(release, tmp_path, caplog):
    """Two score columns beside one component row is a cut ``pca.tsv``."""
    def keep_first_row(lines):
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return lines[: header + 2]

    out, config = copy_outputs_with(release, tmp_path, "pca.tsv", keep_first_row)
    assert len(pipeline._read_tsv(str(out / "pca.tsv"))[2]) == 1
    with caplog.at_level(logging.ERROR):
        assert cli.main(["plot", "--config", str(config)]) == 1
    assert f"{out / 'pca.tsv'}: 1 component rows; the scatter needs 2" in caplog.text
    assert not (out / "pca.svg").exists()


def assert_same_outputs(out, other):
    assert sorted(os.listdir(other)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        assert (other / name).read_bytes() == (out / name).read_bytes(), name


def test_jobs_do_not_change_outputs(release):
    root, config, _, _ = release
    assert cli.main(["run-all", "--config", config, "--jobs", "2", "--out", str(root / "out2")]) == 0
    assert_same_outputs(root / "out", root / "out2")


def test_pool_has_at_most_one_worker_per_treebank(tmp_path, monkeypatch):
    """Under fork, the pool starts all ``max_workers`` processes at the first submit."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    for i in range(2):
        sentences = suffixing_sentences(seed=i, n_lemmas=20, n_cells=2, n_keys=3, n_tokens=200)
        (tmp_path / f"tb{i}.conllu").write_text(conllu_text(sentences), encoding="utf-8")
    manifest = "tb0\tl0\ttb0.conllu\ntb1\tl1\ttb1.conllu\n"
    (tmp_path / "manifest.tsv").write_text(manifest, encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(
        "manifest = manifest.tsv\nout = out\ntarget_tokens = 100\nrepetitions = 1\nmeasures = ttr\n",
        encoding="utf-8",
    )
    assert cli.main(["measure", "--config", str(config), "--jobs", "4"]) == 0
    assert sizes == [2]


def test_neg_ia_pinned(release):
    root, _, _, _ = release
    ia = json.loads((root / "out" / "ia_params.json").read_text(encoding="utf-8"))["treebanks"]
    assert {tb: r["mean_accuracy"] for tb, r in ia.items()} == PINNED_IA_ACCURACY
    _, _, rows = pipeline._read_tsv(str(root / "out" / "measures.tsv"))
    cells = {row[0]: row[2] for row in rows if row[1] == "neg_ia"}
    assert cells == {tb: f"{-acc:.12g}" for tb, acc in PINNED_IA_ACCURACY.items()}


def test_neg_ia_is_na_with_fewer_instances_than_folds(tmp_path):
    """Two distinct (lemma, features, form) instances cannot fill 3 folds."""
    feats = {"Case": "Nom", "Number": "Plur", "Person": "3"}
    sentence = [make_token("dogs", "dog", "NOUN", feats), make_token("cats", "cat", "NOUN", feats)]
    (tmp_path / "tb.conllu").write_text(conllu_text([sentence] * 20), encoding="utf-8")
    (tmp_path / "manifest.tsv").write_text("tb\tl0\ttb.conllu\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(
        "manifest = manifest.tsv\nout = out\ntarget_tokens = 20\nrepetitions = 1\n"
        "measures = ttr,neg_ia\n",
        encoding="utf-8",
    )
    assert cli.main(["measure", "--config", str(config)]) == 0
    rows = pipeline._read_tsv(str(tmp_path / "out" / "measures.tsv"))[2]
    assert [r[1:3] + r[4:] for r in rows] == [["ttr", "0.1", "1", "true"], ["neg_ia", "NA", "1", "false"]]
    ia_params = json.loads((tmp_path / "out" / "ia_params.json").read_text(encoding="utf-8"))
    assert ia_params["treebanks"] == {}


@pytest.mark.parametrize(
    "jobs, hash_seed", [(1, None), (2, None), (2, "1")], ids=["1", "2", "2-PYTHONHASHSEED=1"]
)
def test_output_digests_pinned(release, tmp_path, jobs, hash_seed):
    _, config, _, _ = release
    assert run_all_digests(config, tmp_path / "out", jobs, hash_seed) == PINNED_DIGESTS


def run_all_digests(config, out, jobs, hash_seed):
    """SHA-256 of each run-all output, run in this process, or in a fresh
    interpreter under ``hash_seed``: every test and every forked worker
    shares this session's seed, so only a fresh interpreter shows an output
    that depends on str hash order."""
    args = ["run-all", "--config", config, "--jobs", str(jobs), "--out", str(out)]
    if hash_seed is None:
        assert cli.main(args) == 0
    else:
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-m", "morphcomplex.cli", *args],
                       check=True, env=env, capture_output=True, timeout=300)
    return output_digests(out)


def output_digests(out):
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in PINNED_DIGESTS}


# The release again, every sentence starting upper-case, at every setting that
# is not a default: is counts Key=Value pairs, forms and lemmas are folded,
# WALS rows are language means, and both exclusion rules remove measures.
NON_DEFAULT_SETTINGS = (
    "is_unit = pairs\nlowercase = true\nwals_rows = per-language\n"
    "min_feature_keys = 4\nscript_exclude = tb3\n"
)

PINNED_NON_DEFAULT_DIGESTS = {
    "measures.tsv": "8ae2d77c7b11252ab3dce964b0811b14430b2f74dc57d3071e717b8c6f6855c0",
    "ia_params.json": "ec1c4a90bd30ca34de5826702f55cb6b5b595c88da81d6110b4ba759c2a46204",
    "treebanks.tsv": "57d2e27ca20c43c65b1b5ade70e8311663aaa266737c61fac8dc3ed4ec2bdfaf",
    "run_meta.json": "8ea6be9de127caf5ecd0a4e91ac0a13cd0d96c6380e86d1ed2a75700a7a6d617",
    "correlations.tsv": "8014ea008826090bb604b881d3fd2ac8fa7cf183b12120c3fd5869bf6a52d5ed",
    "pca.tsv": "dd546365d4f671ec53d5029de980cab42354310d1f57b84428aaefd58f5199e9",
    "pca_scores.tsv": "f02cd9c1ea063b4d25ee16aa5e8d9ce8e51ab37e656d7fcd0f77d487aea421d6",
    "ridge.tsv": "e362c14f2531df2a624cc8090f7e3be1d3655f4f0315db6a681aae62293bfd30",
    "analyze_meta.json": "6ddc2e709d946d21092894b81f162db170b340b3573f957e57ae81ba4e3c9925",
    "measures.svg": "2bc087561e395e1d0c1b8139146454480a5a12b0def405674bd89ce78a409d3e",
    "pca.svg": "8b68a47008a017f19e7883fd1503c7971a0e44597e46850f7aef28e0d9051b4f",
    "wals_error.svg": "ff7f3489032b558a85a652805c3b4ed4cf40cef686aeddef629388ada7c6e087",
}


@pytest.fixture(scope="module")
def non_default_release(tmp_path_factory):
    root = tmp_path_factory.mktemp("non_default_release")
    return root, write_release(root, NON_DEFAULT_SETTINGS, capitalize=True)


def test_non_default_release_folds_and_excludes(non_default_release):
    root, config = non_default_release
    text = (root / "tb1.conllu").read_text(encoding="utf-8")
    assert len(parse_conllu(text, "tb1", lowercase=True).forms) < len(parse_conllu(text, "tb1").forms)
    out = root / "out"
    assert cli.main(["run-all", "--config", config]) == 0
    assert json.loads((out / "analyze_meta.json").read_text(encoding="utf-8"))["errors"] == {}
    _, _, rows = pipeline._read_tsv(str(out / "treebanks.tsv"))
    assert {row[0]: row[6] for row in rows if row[6] != "-"} == {
        "tb0": "no-morph-features:is+mfh+neg_ia",
        "tb3": "non-alphabetic-script:ws",
        "tb4": "no-morph-features:is+mfh+neg_ia",
        "tb8": "no-morph-features:is+mfh+neg_ia",
    }


@pytest.mark.parametrize(
    "jobs, hash_seed", [(1, None), (2, None), (2, "1")], ids=["1", "2", "2-PYTHONHASHSEED=1"]
)
def test_non_default_digests_pinned(non_default_release, tmp_path, jobs, hash_seed):
    _, config = non_default_release
    digests = run_all_digests(config, tmp_path / "out", jobs, hash_seed)
    assert digests == PINNED_NON_DEFAULT_DIGESTS


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


def test_plot_reads_no_treebanks_tsv(release, tmp_path):
    """``plot`` draws from ``measures.tsv`` and the analysis tables alone."""
    root, _, _, _ = release
    out = tmp_path / "out"
    shutil.copytree(root / "out", out, ignore=shutil.ignore_patterns("treebanks.tsv"))
    figures = ["measures.svg", "pca.svg", "wals_error.svg"]
    assert pipeline.run_plot(str(out)) == [str(out / name) for name in figures]
    for name in figures:
        assert (out / name).read_bytes() == (root / "out" / name).read_bytes(), name


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


def test_measure_stopped_while_writing_leaves_nothing_for_analyze(release, tmp_path, monkeypatch):
    """A stage stopped at ``run_meta.json`` has written no ``measures.tsv``."""
    root, config, _, _ = release
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    original = pipeline._write_json

    def stopped_at_run_meta(path, obj):
        if os.path.basename(path) == "run_meta.json":
            raise KeyboardInterrupt
        original(path, obj)

    monkeypatch.setattr(pipeline, "_write_json", stopped_at_run_meta)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["measure", "--config", config, "--out", str(out), "--seed", "8"])
    left = ["ia_params.json", "treebanks.tsv"]
    assert sorted(os.listdir(out)) == left
    assert cli.main(["analyze", "--config", config, "--out", str(out)]) == 1
    assert sorted(os.listdir(out)) == left


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
    the pool's module is needed only when ``jobs > 1`` and the thread
    pool's only when ``ws`` is measured."""
    modules = loaded_modules("import sys, morphcomplex.cli")
    assert "morphcomplex.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert "urllib.request" not in modules
    assert "concurrent.futures.process" not in modules
    assert "concurrent.futures.thread" not in modules


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


@pytest.mark.parametrize(
    "wals, error",
    [("", "config key wals: expected a path, got ''"), (".", "config key wals: not a file: ")],
    ids=["blank", "directory"],
)
def test_wals_path_must_be_a_file(tmp_path, caplog, wals, error):
    """Checked before the first treebank is measured, not by ``analyze``
    after the whole measure stage."""
    config = write_release(tmp_path)
    text = (tmp_path / "run.cfg").read_text(encoding="utf-8").replace("wals.csv", wals)
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    assert cli.main(["run-all", "--config", config]) == 1
    [message] = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert message.removeprefix(f"{config}: ").startswith(error)
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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--jobs", "0", "config key jobs: expected an integer >= 1, got 0"),
        ("--jobs", "x", "config key jobs: expected an integer, got 'x'"),
        ("--out", "", "config key out: expected a path, got ''"),
    ],
    ids=["jobs-0", "jobs-x", "blank-out"],
)
def test_invalid_override_exits_1(tmp_path, caplog, flag, value, message):
    config = write_release(tmp_path)
    assert cli.main(["measure", "--config", config, flag, value]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [message]
    assert not (tmp_path / "out").exists()


def test_tracer_wraps_every_layer(release, tmp_path):
    """The benchmark's tracer replaces functions by name in ``pipeline``,
    ``wals`` and the other modules; a renamed one loses its span.  Tracing
    changes no output."""
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
        "inflection.train", "inflection.predict",
        "analysis.correlation", "analysis.pca", "analysis.standardize", "analysis.ridge",
        "wals.load", "wals.encode", "svgplot",
    }
    assert output_digests(tmp_path / "out") == PINNED_DIGESTS
