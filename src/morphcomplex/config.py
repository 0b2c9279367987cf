"""Run configuration: a flat key = value text file plus CLI overrides.

Each config key is the ``RunConfig`` field of the same name, and each
command-line override replaces that field, read as that key in the file is
(a relative path against the working directory).  Every range and choice
check lives in ``RunConfig.__post_init__``, so both sources pass it.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, fields, replace

from .conllu import read_text
from .measures import ALL_MEASURES

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

@dataclass(frozen=True)
class RunConfig:
    manifest: str
    out: str
    wals: str | None = None
    target_tokens: int = 20000
    repetitions: int = 100
    seed: int = 0
    min_feature_keys: int = 3
    script_exclude: frozenset[str] = frozenset()
    lowercase: bool = False
    measures: tuple[str, ...] = ALL_MEASURES
    is_unit: str = "keys"  # or "pairs"
    ia_draws: int = 20
    jobs: int = 1
    wals_rows: str = "per-treebank"  # or "per-language"

    def __post_init__(self):
        for key, first, second in (
            ("is_unit", "keys", "pairs"), ("wals_rows", "per-treebank", "per-language"),
        ):
            value = getattr(self, key)
            if value not in (first, second):
                raise ValueError(f"config key {key}: expected {first!r} or {second!r}, got {value!r}")
        for key, least in (
            ("target_tokens", 1), ("repetitions", 1), ("seed", 0), ("ia_draws", 1), ("jobs", 1),
        ):
            if (value := getattr(self, key)) < least:
                raise ValueError(f"config key {key}: expected an integer >= {least}, got {value!r}")
        if not self.measures:
            raise ValueError("config key measures: expected at least one measure name")
        unknown = [m for m in self.measures if m not in ALL_MEASURES]
        if unknown:
            raise ValueError(f"config key measures: unknown measure names {unknown}")
        repeated = sorted({m for m in self.measures if self.measures.count(m) > 1})
        if repeated:
            raise ValueError(f"config key measures: names listed twice {repeated}")

    def validate_paths(self):
        """Require the manifest and any WALS CSV to be files, so that a
        directory path fails before the measure stage, not after it."""
        for key, path in (("manifest", self.manifest), ("wals", self.wals)):
            if path is not None and not os.path.isfile(path):
                raise FileNotFoundError(f"config key {key}: not a file: {path}")


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _value(key: str, text: str, base_dir: str) -> object:
    """The field value that ``text`` gives config key ``key``, of its default's type."""
    default = _DEFAULTS[key]
    if key in ("manifest", "out", "wals"):
        if not text:  # joined to base_dir, it would name the config's own directory
            raise ValueError(f"config key {key}: expected a path, got {text!r}")
        return os.path.join(base_dir, text)
    if isinstance(default, bool):  # before int: a bool is an int
        if text.lower() not in _BOOL_VALUES:
            raise ValueError(f"config key {key}: expected a boolean, got {text!r}")
        return _BOOL_VALUES[text.lower()]
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"config key {key}: expected an integer, got {text!r}") from None
    if isinstance(default, (tuple, frozenset)):
        return type(default)(s.strip() for s in text.split(",") if s.strip())
    return text


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse the flat key = value run configuration.

    Lines starting with ``#`` and blank lines are ignored; relative paths
    resolve against ``base_dir`` (the config file's directory).  Unknown
    keys are rejected so typos cannot silently fall back to defaults.
    """
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"config line {line_no}: expected 'key = value'")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        raw[key] = value.strip()

    for key, default in _DEFAULTS.items():
        if default is MISSING and key not in raw:
            raise ValueError(f"config is missing required key {key!r}")
    return RunConfig(**{key: _value(key, value, base_dir) for key, value in raw.items()})


def load_config(path: str) -> RunConfig:
    """The configuration in file ``path``; its errors name the file."""
    text = read_text(path)
    try:
        return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def apply_overrides(config: RunConfig, **overrides: str | None) -> RunConfig:
    """``config`` with each override that is not None read as its key in the file."""
    return replace(config, **{k: _value(k, v, "") for k, v in overrides.items() if v is not None})
