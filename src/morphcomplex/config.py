"""Run configuration: a flat key = value text file plus CLI overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .conllu import ExclusionConfig
from .inflection import IASearchConfig
from .measures import ALL_MEASURES
from .sampling import SampleConfig

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


@dataclass(frozen=True)
class RunConfig:
    manifest: str
    out_dir: str
    wals_csv: str | None = None
    sample: SampleConfig = field(default_factory=SampleConfig)
    exclusions: ExclusionConfig = field(default_factory=ExclusionConfig)
    ia_search: IASearchConfig = field(default_factory=IASearchConfig)
    measures: tuple[str, ...] = ALL_MEASURES
    lowercase: bool = False
    is_count_values: bool = False
    wals_rows: str = "per-treebank"  # or "per-language"
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.measures:
            raise ValueError("config key measures: expected at least one measure name")
        unknown = [m for m in self.measures if m not in ALL_MEASURES]
        if unknown:
            raise ValueError(f"config key measures: unknown measure names {unknown}")
        repeated = sorted({m for m in self.measures if self.measures.count(m) > 1})
        if repeated:
            raise ValueError(f"config key measures: names listed twice {repeated}")

    def validate_paths(self):
        """Require the manifest and any WALS CSV to be files, so that a blank
        or directory path fails before the measure stage, not after it."""
        for key, path in (("manifest", self.manifest), ("wals", self.wals_csv)):
            if path is not None and not os.path.isfile(path):
                raise FileNotFoundError(f"config key {key}: not a file: {path}")


_KNOWN_KEYS = {
    "manifest", "wals", "out", "target_tokens", "repetitions", "seed",
    "min_feature_keys", "script_exclude", "lowercase", "measures",
    "is_unit", "ia_draws", "jobs", "wals_rows",
}


def _parse_bool(key: str, value: str) -> bool:
    try:
        return _BOOL_VALUES[value.lower()]
    except KeyError:
        raise ValueError(f"config key {key}: expected a boolean, got {value!r}") from None


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"config key {key}: expected an integer, got {value!r}") from None


def _parse_choice(key: str, value: str, first: str, second: str) -> str:
    if value not in (first, second):
        raise ValueError(f"config key {key}: expected {first!r} or {second!r}, got {value!r}")
    return value


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse the flat key = value run configuration.

    Lines starting with ``#`` and blank lines are ignored; relative paths
    resolve against ``base_dir`` (the config file's directory).  Unknown
    keys are rejected so typos cannot silently fall back to defaults.
    """
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"config line {line_no}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        raw[key] = value

    if "manifest" not in raw:
        raise ValueError("config is missing required key 'manifest'")
    if "out" not in raw:
        raise ValueError("config is missing required key 'out'")

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    def ints(*keys: str) -> dict[str, int]:
        """The integer values the file sets among ``keys``; the rest keep their defaults."""
        return {key: _parse_int(key, raw[key]) for key in keys if key in raw}

    settings: dict[str, object] = ints("jobs")
    if "wals" in raw:
        settings["wals_csv"] = resolve(raw["wals"])
    if "measures" in raw:
        settings["measures"] = tuple(s.strip() for s in raw["measures"].split(",") if s.strip())
    if "lowercase" in raw:
        settings["lowercase"] = _parse_bool("lowercase", raw["lowercase"])
    if "is_unit" in raw:
        is_unit = _parse_choice("is_unit", raw["is_unit"], "keys", "pairs")
        settings["is_count_values"] = is_unit == "pairs"
    if "wals_rows" in raw:
        wals_rows = _parse_choice("wals_rows", raw["wals_rows"], "per-treebank", "per-language")
        settings["wals_rows"] = wals_rows
    script_ids = frozenset(
        s.strip() for s in raw.get("script_exclude", "").split(",") if s.strip()
    )
    return RunConfig(
        manifest=resolve(raw["manifest"]),
        out_dir=resolve(raw["out"]),
        sample=SampleConfig(**ints("target_tokens", "repetitions", "seed")),
        exclusions=ExclusionConfig(script_excluded_ids=script_ids, **ints("min_feature_keys")),
        ia_search=IASearchConfig(*ints("ia_draws").values()),  # n_draws, its only field
        **settings,
    )


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8-sig") as f:
        text = f.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def apply_overrides(
    config: RunConfig,
    seed: int | None = None,
    out_dir: str | None = None,
    jobs: int | None = None,
    target_tokens: int | None = None,
    repetitions: int | None = None,
) -> RunConfig:
    """``config`` with every override that is not None applied."""

    def given(**values):
        return {k: v for k, v in values.items() if v is not None}

    sample = replace(
        config.sample, **given(seed=seed, target_tokens=target_tokens, repetitions=repetitions)
    )
    return replace(config, sample=sample, **given(out_dir=out_dir, jobs=jobs))
