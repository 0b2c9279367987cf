"""End-to-end runs of the command line over a small synthetic release."""

import json
import os

import numpy as np
import pytest

from morphcomplex import cli, pipeline
from morphcomplex.measures import ALL_MEASURES
from morphcomplex.wals import MORPHOLOGY_FEATURES

from synthdata import conllu_text, suffixing_sentences
from test_analysis import nested_loo_reference

N_TREEBANKS = 10  # more rows than measures, so no principal component is degenerate


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
    rng = np.random.default_rng(0)
    wals = ["iso_code," + ",".join(MORPHOLOGY_FEATURES)]
    for lang in sorted(set(languages)):
        values = rng.integers(0, 4, size=len(MORPHOLOGY_FEATURES))  # 0: missing
        wals.append(",".join([lang] + [str(v) if v else "" for v in values]))
    (root / "wals.csv").write_text("\n".join(wals) + "\n", encoding="utf-8")
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

    def recording(design, target, *args, **kwargs):
        calls.append((design.matrix.copy(), np.array(target)))
        return original(design, target, *args, **kwargs)

    pipeline.ridge_loocv = recording
    try:
        code = cli.main(["run-all", "--config", config])
    finally:
        pipeline.ridge_loocv = original
    return root, config, code, calls


def test_run_all_writes_every_output(release):
    root, _, code, _ = release
    assert code == 0
    assert sorted(os.listdir(root / "out")) == sorted(
        [
            "measures.tsv", "treebanks.tsv", "run_meta.json", "ia_params.json",
            "correlations.tsv", "pca.tsv", "pca_scores.tsv", "ridge.tsv",
            "analyze_meta.json", "measures.svg", "pca.svg", "wals_error.svg",
        ]
    )
    meta = json.loads((root / "out" / "analyze_meta.json").read_text(encoding="utf-8"))
    assert meta["errors"] == {}
    assert meta["n_pca_rows"] == N_TREEBANKS


def test_ridge_rows_match_solve_reference(release):
    root, _, _, calls = release
    _, header, rows = pipeline._read_tsv(str(root / "out" / "ridge.tsv"))
    targets = list(ALL_MEASURES) + [f"pc{k + 1}" for k in range(len(ALL_MEASURES))]
    assert [row[0] for row in rows] == targets
    assert len(calls) == len(rows)
    for row, (design, target) in zip(rows, calls):
        record = dict(zip(header, row))
        assert int(record["n_rows"]) == N_TREEBANKS
        _, _, rmse = nested_loo_reference(design, target)
        assert record["rmse"] == f"{rmse:.12g}"


def test_truncated_measures_tsv_fails_analyze_cleanly(release, tmp_path):
    root, _, _, _ = release
    out = tmp_path / "out"
    out.mkdir()
    for name in ("measures.tsv", "treebanks.tsv"):
        (out / name).write_bytes((root / "out" / name).read_bytes())
    measures = (out / "measures.tsv").read_text(encoding="utf-8")
    (out / "measures.tsv").write_text(measures[: len(measures) // 2], encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"manifest = {root / 'manifest.tsv'}\nout = {out}\n", encoding="utf-8")
    assert cli.main(["analyze", "--config", str(config)]) == 1
    with pytest.raises(ValueError, match=r"measures\.tsv: line \d+: expected 6 columns"):
        pipeline.read_measure_matrix(str(out))
