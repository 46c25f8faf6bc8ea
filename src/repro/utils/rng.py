"""Seeded RNG helpers."""

from __future__ import annotations

from typing import List

import numpy as np


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Independent generators derived from one seed (for parallel
    components that must not share a stream)."""
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]

