"""Known-answer checks for the analysis stage: plant a latent variable, recover it.

The ladder tests check that each measure moves with the morphology it
tracks; these check that PCA and ridge regression find structure that is
planted in the data.  The releases come from the benchmark's generator,
10 treebanks of 6k tokens, and go through ``measure`` and ``analyze`` on
the command line.  At spelling and permutation seeds 1-5, one latent gave
PC1 0.86 with ``lh`` at 0.97-0.98 on PC2; two latents gave PC1 0.69-0.77
with ``lh`` at 0.66-0.71 on PC2 against -0.18 to -0.38 for ``msp``,
``mfh`` and ``neg_ia``.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from morphcomplex.analysis import ridge_loocv, standardize
from morphcomplex.pipeline import _read_tsv

from test_pipeline import fresh_python

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.synth import TreebankSpec, write_inputs  # noqa: E402

N_TREEBANKS = 10
SEED = 1
BASE = TreebankSpec("base", "xx", 6000, 800, 1.1, 2, 3, 2, 1, 0.0, 14.0)
# Knobs that rise together from the first treebank to the last: (start, end).
MORPHOLOGY = {
    "cells": (2, 30), "nominal_keys": (2, 6), "verbal_keys": (3, 8),
    "classes": (1, 4), "irregular": (0.0, 0.15),
}
# The lemma law, moved in a seeded permutation of the treebanks.
LEMMA_LAW = {"n_lemmas": (400, 3000), "zipf": (0.9, 1.4)}
RUN = {"target_tokens": 2000, "repetitions": 4, "ia_draws": 1, "jobs": 2}


def step(knobs, i):
    """Each knob's value at step ``i`` of ``N_TREEBANKS``, integers kept integral."""
    out = {}
    for name, (start, end) in knobs.items():
        value = start + (end - start) * i / (N_TREEBANKS - 1)
        out[name] = round(value) if isinstance(start, int) else value
    return out


def specs(two_latents):
    order = np.random.default_rng(SEED).permutation(N_TREEBANKS).tolist()
    return [
        dataclasses.replace(
            BASE, id=f"tb{i}", lang=f"l{i}",
            **step(MORPHOLOGY, i), **(step(LEMMA_LAW, order[i]) if two_latents else {}),
        )
        for i in range(N_TREEBANKS)
    ]


def run_pca(directory, two_latents):
    """PC1's explained ratio and the PC2 loading of each measure."""
    config = write_inputs(str(directory), specs(two_latents), SEED, RUN, with_wals=False)
    code = "import sys; from morphcomplex import cli; assert cli.main(sys.argv[1:]) == 0"
    for command in ("measure", "analyze"):
        fresh_python(code, command, "--config", config)
    _, header, rows = _read_tsv(str(directory / "out" / "pca.tsv"))
    measures = [h.removeprefix("loading:") for h in header[2:]]
    return float(rows[0][1]), dict(zip(measures, map(float, rows[1][2:])))


@pytest.fixture(scope="module")
def one_latent(tmp_path_factory):
    return run_pca(tmp_path_factory.mktemp("one_latent"), two_latents=False)


@pytest.fixture(scope="module")
def two_latents(tmp_path_factory):
    return run_pca(tmp_path_factory.mktemp("two_latents"), two_latents=True)


def test_one_latent_dominates_pc1(one_latent):
    pc1, pc2 = one_latent
    assert pc1 >= 0.75, pc1
    # The lemma law is held fixed, so lemma entropy is noise: PC2 alone.
    assert abs(pc2["lh"]) >= 0.9, pc2


def test_lemma_law_separates_lh_onto_pc2(two_latents):
    _, pc2 = two_latents
    assert max(pc2, key=lambda m: abs(pc2[m])) == "lh", pc2
    assert all(pc2["lh"] * pc2[m] < 0 for m in ("msp", "mfh", "neg_ia")), pc2


def one_hot(levels, n_levels):
    return np.eye(n_levels)[levels]


@pytest.mark.parametrize("seed", range(3))
def test_ridge_finds_planted_feature_at_60_rows(seed):
    """A 5-level feature plus noise (sd 0.1).  Over seeds 0-7, ``error_reduction``
    was 0.89-0.92 with the feature alone and 0.22-0.48 with 27 random
    categorical features beside it."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 5, size=60)
    target = standardize(levels)[:, 0] + rng.normal(0, 0.1, size=60)
    planted = one_hot(levels, 5)
    random = [one_hot(rng.integers(0, k, size=60), k) for k in rng.integers(2, 7, size=27)]
    assert ridge_loocv(planted, target).error_reduction[0] >= 0.5
    assert ridge_loocv(np.hstack([planted, *random]), target).error_reduction[0] > 0
