"""Known-answer checks: each measure moves the way the morphology it tracks moves.

Each ladder of synthetic treebanks moves one knob of the benchmark's
generator and keeps the others at a base shape; the tests assert the
direction each measure takes along a ladder (Bentz et al. 2016; Çöltekin &
Rama 2018).  The digest pins say only that a number changed; these say
whether it still means what it should.  The run goes through the command
line, which pins OpenBLAS to one thread in each of its two workers.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from morphcomplex.pipeline import read_measure_matrix

from test_pipeline import fresh_python

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.synth import TreebankSpec, treebank_text  # noqa: E402

# 12k tokens, 800 lemmas, 5 nominal and 6 verbal feature keys, 8 paradigm
# cells, 2 inflection classes, 2% irregular forms.
BASE = TreebankSpec("base", "xx", 12000, 800, 1.1, 5, 6, 8, 2, 0.02, 14.0)
LADDERS = {
    "cells": [{"cells": c} for c in (2, 4, 8, 16, 30)],
    "keys": [{"nominal_keys": n, "verbal_keys": v} for n, v in ((2, 3), (4, 5), (6, 8))],
    "irregular": [{"irregular": r} for r in (0.0, 0.05, 0.15, 0.30)],
    "classes": [{"classes": c} for c in (1, 2, 4)],
}
BASE_STEP = 2  # the cells ladder's step at the base shape

# Lemma entropy depends on the lemma frequency law alone: 6.71-6.79 bits on
# every treebank here.
LH_BAND = (6.65, 6.85)
# Largest relative distance from the base that a knob other than cells may
# move the count-based measures.  One cells step moves ttr and msp by 13% or
# more; knob by knob, 2.3%, 1.2%, 1.2% and 4.4% are the largest seen.
TOLERANCE = {"ttr": 0.04, "wh": 0.02, "lh": 0.02, "msp": 0.06}


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """``{ladder: {measure: [mean per step]}}`` from one ``measure`` run."""
    root = tmp_path_factory.mktemp("ladder")
    manifest = []
    for name, steps in LADDERS.items():
        for i, knobs in enumerate(steps):
            spec = dataclasses.replace(BASE, id=f"{name}{i}", **knobs)
            text = treebank_text(spec, np.random.default_rng(1))
            (root / f"{spec.id}.conllu").write_text(text, encoding="utf-8")
            manifest.append(f"{spec.id}\t{spec.lang}\t{spec.id}.conllu")
    (root / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    config = root / "run.cfg"
    config.write_text(
        "manifest = manifest.tsv\nout = out\n"
        "target_tokens = 5000\nrepetitions = 10\nseed = 0\nia_draws = 3\njobs = 2\n",
        encoding="utf-8",
    )
    code = "import sys; from morphcomplex import cli; assert cli.main(sys.argv[1:]) == 0"
    fresh_python(code, "measure", "--config", str(config))
    matrix = read_measure_matrix(str(root / "out"))[0]
    row = {tb: i for i, tb in enumerate(matrix.treebank_ids)}
    return {
        name: {
            m: [float(matrix.values[row[f"{name}{i}"], j]) for i in range(len(steps))]
            for j, m in enumerate(matrix.measures)
        }
        for name, steps in LADDERS.items()
    }


def rises(values):
    return all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("measure", ["ttr", "ws", "wh", "msp", "mfh", "neg_ia"])
def test_more_cells_raise(ladder, measure):
    assert rises(ladder["cells"][measure]), ladder["cells"][measure]


def test_lemma_entropy_stays_in_band(ladder):
    lh = [v for steps in ladder.values() for v in steps["lh"]]
    assert all(LH_BAND[0] <= v <= LH_BAND[1] for v in lh), lh


def test_cells_leave_synthesis(ladder):
    assert ladder["cells"]["is"] == [6.0] * 5  # the verbs' 6 keys


def test_synthesis_reads_the_larger_key_count(ladder):
    assert ladder["keys"]["is"] == [3.0, 5.0, 8.0]


@pytest.mark.parametrize("name", ["irregular", "classes"])
def test_irregular_forms_and_classes_raise_neg_ia(ladder, name):
    assert rises(ladder[name]["neg_ia"]), ladder[name]["neg_ia"]


@pytest.mark.parametrize("measure", sorted(TOLERANCE))
def test_other_knobs_leave_count_measures(ladder, measure):
    base = ladder["cells"][measure][BASE_STEP]
    for name in ("keys", "irregular", "classes"):
        for value in ladder[name][measure]:
            assert abs(value / base - 1) <= TOLERANCE[measure], (name, ladder[name][measure], base)
