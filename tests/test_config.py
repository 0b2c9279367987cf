"""The key = value run configuration and its command-line overrides."""

import argparse
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from morphcomplex import cli
from morphcomplex.config import RunConfig, apply_overrides, load_config, parse_config
from morphcomplex.inflection import IASearchConfig

ROOT = Path(__file__).resolve().parent.parent
BASE = os.path.join(os.sep, "runs", "base")
MINIMAL = "manifest = manifest.tsv\nout = out\n"


def test_minimal_config_takes_every_default():
    assert parse_config(MINIMAL, BASE) == RunConfig(
        manifest=os.path.join(BASE, "manifest.tsv"), out=os.path.join(BASE, "out")
    )


def test_every_key_reaches_its_field():
    text = MINIMAL + (
        "wals = wals.csv\ntarget_tokens = 500\nrepetitions = 7\nseed = 11\n"
        "min_feature_keys = 2\nscript_exclude = zh, ja\nlowercase = yes\n"
        "measures = ttr, ws\nis_unit = pairs\nia_draws = 4\njobs = 3\nwals_rows = per-language\n"
    )
    assert parse_config(text, BASE) == RunConfig(
        manifest=os.path.join(BASE, "manifest.tsv"),
        out=os.path.join(BASE, "out"),
        wals=os.path.join(BASE, "wals.csv"),
        target_tokens=500,
        repetitions=7,
        seed=11,
        min_feature_keys=2,
        script_exclude=frozenset({"zh", "ja"}),
        lowercase=True,
        measures=("ttr", "ws"),
        is_unit="pairs",
        ia_draws=4,
        jobs=3,
        wals_rows="per-language",
    )


def test_comments_and_blank_lines_ignored():
    text = "# a run\n\n  manifest = m.tsv  \n# out = elsewhere\nout = o\n\n"
    config = parse_config(text, BASE)
    assert (config.manifest, config.out) == (os.path.join(BASE, "m.tsv"), os.path.join(BASE, "o"))


def test_relative_paths_resolve_against_base_and_absolute_paths_stay():
    absolute = os.path.join(os.sep, "data", "wals.csv")
    config = parse_config(f"manifest = sub/m.tsv\nout = {BASE}\nwals = {absolute}\n", "cfg")
    assert config.manifest == os.path.join("cfg", "sub/m.tsv")
    assert config.out == BASE
    assert config.wals == absolute


def test_load_config_resolves_against_the_files_directory(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    config = load_config(str(path))
    assert config.manifest == os.path.join(str(tmp_path), "manifest.tsv")
    assert config.out == os.path.join(str(tmp_path), "out")


def test_load_config_skips_a_bom(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode("utf-8"))
    assert load_config(str(path)).manifest == os.path.join(str(tmp_path), "manifest.tsv")


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL + "sede = 3\n", "config line 3: unknown key 'sede'"),
        (MINIMAL + "seed = 1\nseed = 2\n", "config line 4: duplicate key 'seed'"),
        (MINIMAL + "seed 3\n", "config line 3: expected 'key = value'"),
        ("out = out\n", "config is missing required key 'manifest'"),
        ("manifest = m.tsv\n", "config is missing required key 'out'"),
        (MINIMAL + "repetitions = ten\n", "config key repetitions: expected an integer, got 'ten'"),
        (MINIMAL + "ia_draws = 2.5\n", "config key ia_draws: expected an integer, got '2.5'"),
        (MINIMAL + "lowercase = maybe\n", "config key lowercase: expected a boolean, got 'maybe'"),
        (MINIMAL + "measures = ttr, foo\n", "config key measures: unknown measure names ['foo']"),
        (MINIMAL + "is_unit = words\n", "config key is_unit: expected 'keys' or 'pairs', got 'words'"),
        (
            MINIMAL + "wals_rows = per-family\n",
            "config key wals_rows: expected 'per-treebank' or 'per-language', got 'per-family'",
        ),
        # Settings that would make every treebank fail, or quietly do something else.
        (MINIMAL + "target_tokens = 0\n", "target_tokens must be >= 1"),
        (MINIMAL + "repetitions = 0\n", "repetitions must be >= 1"),
        (MINIMAL + "seed = -1\n", "seed must be >= 0"),
        (MINIMAL + "ia_draws = 0\n", "ia_draws must be >= 1"),
        (MINIMAL + "jobs = 0\n", "jobs must be >= 1"),
        (MINIMAL + "jobs = -2\n", "jobs must be >= 1"),
        (MINIMAL + "measures = ttr,ttr\n", "config key measures: names listed twice ['ttr']"),
        (MINIMAL + "measures =\n", "config key measures: expected at least one measure name"),
    ],
)
def test_error_messages(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_config(text, BASE)


@pytest.mark.parametrize(
    "override, message",
    [({"seed": -1}, "seed must be >= 0"), ({"jobs": 0}, "jobs must be >= 1")],
)
def test_overrides_are_checked_like_the_file(override, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_overrides(parse_config(MINIMAL, BASE), **override)


def test_apply_overrides_changes_only_given_values():
    config = parse_config(MINIMAL + "seed = 4\nrepetitions = 9\njobs = 2\n", BASE)
    assert apply_overrides(config) == config
    changed = apply_overrides(config, seed=5, target_tokens=300, out="elsewhere")
    assert changed == RunConfig(
        manifest=config.manifest, out="elsewhere", target_tokens=300, repetitions=9, seed=5, jobs=2
    )
    assert apply_overrides(config, jobs=1, repetitions=3, seed=None) == RunConfig(
        manifest=config.manifest, out=config.out, repetitions=3, seed=4, jobs=1
    )


def test_ia_search_takes_only_the_draw_count():
    assert IASearchConfig().ngram_range == (1, 4)
    assert (IASearchConfig.n_folds, IASearchConfig.epoch_range) == (3, (5, 30))
    with pytest.raises(TypeError):
        IASearchConfig(n_folds=5)


def test_readme_keys_fields_and_override_flags_agree():
    """One surface: the README's config keys are the ``RunConfig`` fields,
    in order, and every command-line override names the field it replaces."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    names = [f.name for f in fields(RunConfig)]
    assert re.findall(r"^\| `(\w+)` \|", table, flags=re.M) == names
    commands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for command, parser in commands.items():
        flags = {a.dest for a in parser._actions if a.option_strings} - {"help", "config"}
        assert flags <= set(names), command
        overrides = {"out", "seed", "jobs", "target_tokens", "repetitions"}
        assert flags == (overrides if command in ("measure", "run-all") else {"out"}), command
