"""Correctness checks: each returns ``None`` when it passes, else a reason.

Stdlib only, so the benchmark's tests can exercise them without a model.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

#: Served scores are rounded to 8 decimals in the JSON payload, and BLAS
#: results differ in the last ulp across batch shapes.
RTOL = 1e-6
ATOL = 1e-7


def _allclose(got: Sequence[float], want: Sequence[float]) -> bool:
    return len(got) == len(want) and all(
        abs(float(g) - float(w)) <= ATOL + RTOL * abs(float(w))
        for g, w in zip(got, want)
    )


def check_recommend(payload: dict, expected: dict) -> Optional[str]:
    """A served ``/recommend`` reply against the offline top-K: items
    exactly, scores within tolerance."""
    user = expected["user"]
    if payload.get("user") != user:
        return f"user {user}: reply is for user {payload.get('user')}"
    if list(payload.get("items", [])) != list(expected["items"]):
        return f"user {user}: served items {payload.get('items')} != offline {expected['items']}"
    if not _allclose(payload.get("scores", []), expected["scores"]):
        return f"user {user}: served scores differ from offline scores"
    return None


def check_score(payload: dict, expected: dict) -> Optional[str]:
    """A served ``/score`` reply against ``model.predict``."""
    user = expected["user"]
    if list(payload.get("items", [])) != list(expected["items"]):
        return f"user {user}: /score echoed other items"
    if not _allclose(payload.get("scores", []), expected["scores"]):
        return f"user {user}: /score differs from model.predict"
    return None


def check_reply(kind: str, body: bytes, want_len: int) -> Optional[str]:
    """A load-test reply must be JSON with ``want_len`` finite scores."""
    try:
        payload = json.loads(body)
    except ValueError:
        return f"{kind}: reply is not JSON"
    scores = payload.get("scores")
    if not isinstance(scores, list) or len(scores) != want_len:
        return f"{kind}: expected {want_len} scores"
    if not all(isinstance(s, (int, float)) and math.isfinite(s) for s in scores):
        return f"{kind}: non-finite score"
    if kind == "recommend" and len(payload.get("items", [])) != want_len:
        return f"{kind}: items and scores differ in length"
    return None


def check_losses(losses: Sequence[float]) -> Optional[str]:
    """Every epoch's loss is finite and the last is below the first."""
    if len(losses) < 2:
        return f"need at least two epoch losses, got {len(losses)}"
    if not all(math.isfinite(x) for x in losses):
        return f"non-finite epoch loss in {list(losses)}"
    if not losses[-1] < losses[0]:
        return f"last epoch loss {losses[-1]:.6f} is not below the first {losses[0]:.6f}"
    return None


def check_recall(recall: float, n_items: int, k: int = 20) -> Optional[str]:
    """Recall@k must beat the random-ranking expectation k / n_items."""
    baseline = k / n_items
    if not recall > baseline:
        return f"recall@{k} {recall:.4f} does not beat random ranking {baseline:.4f}"
    return None
