"""Bootstrap sampling of sentences and aggregation over repetitions.

A sample is an array of token indices into its treebank, with the start
offset of every drawn sentence.  Every random stream is derived from (run
seed, treebank id, repetition index, stream tag), so results do not depend
on execution order or on how work is spread over processes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .conllu import Treebank

# Stream tags keep the sampling draw, the per-measure draws and the single
# inflection-learner sample independent of each other.
_STREAM_SAMPLE = 1
_STREAM_MEASURE = 2
_STREAM_INFLECTION = 3

MeasureFn = Callable[["Sample", np.random.Generator], float | None]


class MeasureError(RuntimeError):
    """A measure failed; the message carries the repetition index."""


@dataclass(frozen=True, eq=False)
class Sample:
    """Sentences drawn with replacement; the last one may be truncated.

    ``tokens`` holds the treebank index of every sample token, in order, and
    ``sentences`` the offset in ``tokens`` where each drawn sentence starts.
    """

    treebank: Treebank
    tokens: np.ndarray
    sentences: np.ndarray

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    def rows(self, values: list) -> list[list]:
        """Split one value per sample token into one list per sentence."""
        bounds = self.sentences.tolist() + [len(values)]
        return [values[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class MeasureStats:
    """Mean and population standard deviation over repetitions; both are
    None unless every repetition gave a value."""

    mean: float | None
    stddev: float | None
    n_repetitions: int

    @property
    def available(self) -> bool:
        return self.mean is not None


def _name_hash(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_rng(seed: int, treebank_id: str, repetition: int) -> np.random.Generator:
    """Generator that drives sentence drawing for one repetition."""
    return np.random.default_rng([seed, _name_hash(treebank_id), repetition, _STREAM_SAMPLE])


def measure_rng(seed: int, treebank_id: str, repetition: int, measure: str) -> np.random.Generator:
    """Generator owned by one measure within one repetition."""
    return np.random.default_rng(
        [seed, _name_hash(treebank_id), repetition, _STREAM_MEASURE, _name_hash(measure)]
    )


def inflection_rng(seed: int, treebank_id: str) -> np.random.Generator:
    """Generator for the single inflection-learner sample and search."""
    return np.random.default_rng([seed, _name_hash(treebank_id), _STREAM_INFLECTION])


def bootstrap_sample(treebank: Treebank, target_tokens: int, rng: np.random.Generator) -> Sample:
    """Draw sentences uniformly with replacement until the token budget.

    The final sentence is truncated so the sample holds exactly
    ``target_tokens`` tokens; order inside each sentence is preserved.
    ``rng`` makes exactly one draw per drawn sentence: each round draws as
    many sentences as the budget still needs if every one is the longest.
    """
    if len(treebank.sentences) == 0 or treebank.n_tokens == 0:
        raise ValueError(f"treebank {treebank.id}: cannot sample from an empty treebank")
    if target_tokens < 1:
        raise ValueError("target_tokens must be >= 1")
    sizes = treebank.sentence_lengths
    longest = int(sizes.max())
    rounds = []
    total = 0
    while total < target_tokens:
        rounds.append(rng.integers(0, len(sizes), size=-((total - target_tokens) // longest)))
        total += int(sizes[rounds[-1]].sum())
    drawn = np.concatenate(rounds)
    lens = sizes[drawn]
    starts = np.cumsum(lens) - lens
    tokens = np.repeat(treebank.sentences[drawn] - starts, lens) + np.arange(total)
    return Sample(treebank, tokens[:target_tokens], starts)


def run_repetitions(
    treebank: Treebank,
    measure_fns: Mapping[str, MeasureFn],
    target_tokens: int,
    repetitions: int,
    seed: int,
) -> dict[str, MeasureStats]:
    """Evaluate sample-level measures over ``repetitions`` bootstrap samples.

    Each repetition derives its own generators, so permuting or
    parallelising repetitions cannot change the summary.  A measure is
    reported as available only when every repetition produced a value.
    """
    values: dict[str, list[float | None]] = {name: [] for name in measure_fns}
    for rep in range(repetitions):
        sample = bootstrap_sample(treebank, target_tokens, sample_rng(seed, treebank.id, rep))
        for name, fn in measure_fns.items():
            try:
                value = fn(sample, measure_rng(seed, treebank.id, rep, name))
            except Exception as exc:
                raise MeasureError(
                    f"measure {name!r} failed on repetition {rep} of {treebank.id}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            values[name].append(value)
    summary: dict[str, MeasureStats] = {}
    for name, vals in values.items():
        if None in vals:
            summary[name] = MeasureStats(None, None, repetitions)
            continue
        mean = float(np.mean(vals))
        if math.isnan(mean):
            raise MeasureError(f"measure {name!r} produced NaN on {treebank.id}")
        summary[name] = MeasureStats(mean, float(np.std(vals)), repetitions)  # population sd
    return summary
