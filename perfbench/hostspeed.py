"""A fixed reference loop that measures how fast the host runs at the moment.

On a shared host the same code runs up to 2x slower for seconds to minutes
at a time, and sets of runs made twenty minutes apart differ by more than a
useful bound.  The benchmark therefore runs a block of this loop before and
after every timed process and scales that process's time by
``REFERENCE_S`` over the mean of the two blocks' median loop times: it
reports seconds on a host that runs one loop in ``REFERENCE_S``.

A block lasts seconds, not a fraction of one: the host's speed changes
within a second, so short blocks sample that noise rather than the speed
the timed process ran at.  With blocks of 80 loops around each child, the
block time and the child's wall time had correlation 0.85
(``sample-measures``) and 0.67 (``many-treebanks``) over ten minutes.

The loop does what ``run-all`` does most, in code of its own, so that no
change to the program changes the scale: splitting tab-separated lines,
counting strings and bumping feature weights in dicts, zlib at level 9, and
a numpy sort and bincount.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

# Median loop time on the host the baseline was measured on (2-vCPU Intel
# Xeon VM, Python 3.11.7, numpy 2.4.6).  It fixes only the scale of the
# reported figures.
REFERENCE_S = 0.055
BLOCK_LOOPS = 64


def _make_input() -> tuple[str, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2204_05056)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = ["".join(letters[rng.integers(0, 26, int(n))]) for n in rng.integers(2, 10, 3000)]
    ranks = (rng.zipf(1.3, 40000) % len(words)).tolist()
    text = "\n".join(
        f"{i}\t{words[j]}\t{words[j * 7 % len(words)]}\tNOUN\tCase=Nom|Number=Sing"
        for i, j in enumerate(ranks)
    )
    return text, rng.random(50000), rng.integers(0, 500, 50000)


def _loop(text: str, floats: np.ndarray, ints: np.ndarray) -> int:
    counts: dict[str, int] = {}
    weights: dict[str, float] = {}
    for line in text.split("\n"):
        cols = line.split("\t")
        form = cols[1]
        counts[form] = counts.get(form, 0) + 1
        for feature in (form[-2:], form[:2], cols[4]):
            weights[feature] = weights.get(feature, 0.0) + 0.5
    zlib.compress(text[:120000].encode(), 9)
    np.argsort(floats)
    np.bincount(ints)
    return len(counts) + len(weights)


class HostSpeed:
    """Reference-loop blocks of one benchmark run."""

    def __init__(self):
        self._input = _make_input()
        _loop(*self._input)  # warm-up, not recorded
        self.blocks: list[float] = []  # median loop time of each block

    def block(self) -> None:
        times = []
        for _ in range(BLOCK_LOOPS):
            start = time.perf_counter()
            _loop(*self._input)
            times.append(time.perf_counter() - start)
        self.blocks.append(statistics.median(times))

    def scale(self, i: int) -> float:
        """Factor from host seconds to reference seconds between blocks ``i`` and ``i + 1``."""
        return REFERENCE_S / ((self.blocks[i] + self.blocks[i + 1]) / 2)
