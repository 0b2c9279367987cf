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

    def validate_paths(self):
        if not os.path.exists(self.manifest):
            raise FileNotFoundError(f"manifest not found: {self.manifest}")
        if self.wals_csv is not None and not os.path.exists(self.wals_csv):
            raise FileNotFoundError(f"WALS CSV not found: {self.wals_csv}")


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

    sample = SampleConfig(
        target_tokens=_parse_int("target_tokens", raw.get("target_tokens", "20000")),
        repetitions=_parse_int("repetitions", raw.get("repetitions", "100")),
        seed=_parse_int("seed", raw.get("seed", "0")),
    )
    script_ids = frozenset(
        s.strip() for s in raw.get("script_exclude", "").split(",") if s.strip()
    )
    exclusions = ExclusionConfig(
        min_feature_keys=_parse_int("min_feature_keys", raw.get("min_feature_keys", "3")),
        script_excluded_ids=script_ids,
    )
    measures = tuple(
        s.strip() for s in raw.get("measures", ",".join(ALL_MEASURES)).split(",") if s.strip()
    )
    unknown = [m for m in measures if m not in ALL_MEASURES]
    if unknown:
        raise ValueError(f"config key measures: unknown measure names {unknown}")

    is_unit = raw.get("is_unit", "keys")
    if is_unit not in ("keys", "pairs"):
        raise ValueError(f"config key is_unit: expected 'keys' or 'pairs', got {is_unit!r}")

    wals_rows = raw.get("wals_rows", "per-treebank")
    if wals_rows not in ("per-treebank", "per-language"):
        raise ValueError(
            f"config key wals_rows: expected 'per-treebank' or 'per-language', got {wals_rows!r}"
        )

    return RunConfig(
        manifest=resolve(raw["manifest"]),
        out_dir=resolve(raw["out"]),
        wals_csv=resolve(raw["wals"]) if "wals" in raw else None,
        sample=sample,
        exclusions=exclusions,
        ia_search=IASearchConfig(n_draws=_parse_int("ia_draws", raw.get("ia_draws", "20"))),
        measures=measures,
        lowercase=_parse_bool("lowercase", raw.get("lowercase", "false")),
        is_count_values=(is_unit == "pairs"),
        wals_rows=wals_rows,
        jobs=_parse_int("jobs", raw.get("jobs", "1")),
    )


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as f:
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
