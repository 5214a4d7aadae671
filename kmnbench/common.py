"""Helpers shared by the three components: order statistics and seeded
inputs."""

from __future__ import annotations

import math
import random
import statistics
from array import array

# The tail latency is the 99th percentile over a round's inputs, so a round
# needs at least this many inputs to leave ten beyond it.
TAIL_PERCENTILE = 99
MIN_TAIL_SAMPLES = 1000


def median(values) -> float:
    return statistics.median(values)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def seeded_rng(*parts) -> random.Random:
    """A generator seeded from a string, so it is the same in every process."""
    return random.Random("/".join(map(str, parts)))


def uniform_array(rng: random.Random, count: int, lo: int, hi: int) -> array:
    """``count`` integers in [lo, hi), stored as 32-bit values (every range the
    benchmark draws from lies well inside it)."""
    raw = array("I")
    raw.frombytes(rng.randbytes(4 * count))
    span = hi - lo
    return array("i", [x % span + lo for x in raw])
