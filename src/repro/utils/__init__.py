"""Small shared utilities: ASCII table/series rendering for the benchmark
harness and seeded RNG helpers."""

from repro.utils.tables import format_series, format_table
from repro.utils.rng import spawn_rngs

__all__ = ["format_table", "format_series", "spawn_rngs"]
