"""Offline top-K retrieval index over precomputed representations.

Answers ``top-K items for user u`` without touching the model at request
time. Two build modes, picked automatically:

* **factorized** — the model exposes final user/item matrices with
  ``scores = U @ I.T`` (:meth:`Recommender.representations`, e.g. BPRMF,
  LightGCN); queries are blocked matmuls against the item matrix.
* **dense** — models whose item representation depends on the target
  user (CG-KGR's collaborative guidance, KGCN's user-relation attention)
  cannot be factorized exactly, so the index precomputes full score rows
  via the same ``score_all_items`` path the ranking protocol uses —
  build cost equals one full evaluation sweep, queries are row lookups.

Either way the query path is: score row → per-user seen-item mask
(shared with :func:`repro.graph.interactions.build_mask_table`, so serving and
evaluation mask identically) → ``np.argpartition`` top-K with the same
tie-breaking as the brute-force protocol (descending score, ascending
item id). Top-K equality with :func:`evaluate_topk` is test-enforced.

A third mode, ``"ann"``, dispatches to the approximate
:class:`repro.serve.ann.IVFIndex` (same query surface, measured recall
instead of exactness) for catalogues where the O(items) scan is too
slow; :func:`load_index` reloads either kind from its ``.npz``.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import Recommender
from repro.graph.interactions import InteractionGraph, build_mask_table


def topk_from_scores(
    scores: np.ndarray, k: int, masked: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` (items, scores) of one score row, masked items excluded.

    Matches :func:`repro.eval.ranking.rank_items` ordering exactly:
    descending score with ties broken by ascending item id.
    """
    row = np.asarray(scores, dtype=np.float64)
    if masked is not None and masked.size:
        row = row.copy()
        row[masked] = -np.inf
    k = min(int(k), row.size)
    if k < row.size:
        part = np.argpartition(-row, k - 1)[:k]
        # argpartition picks an arbitrary subset of items tied at the
        # k-th boundary; gather every item at the boundary score so the
        # lexsort below breaks the tie by ascending id, like rank_items.
        boundary = row[part].min()
        candidates = np.concatenate(
            [part[row[part] > boundary], np.flatnonzero(row == boundary)]
        )
    else:
        candidates = np.arange(row.size)
    order = np.lexsort((candidates, -row[candidates]))[:k]
    items = candidates[order]
    return items, row[items]


class TopKIndex:
    """Precomputed user→item retrieval over a trained recommender."""

    #: Modes a class accepts; :class:`repro.serve.ann.IVFIndex` narrows
    #: this to ``("ann",)`` while reusing the rest of the constructor.
    _MODES = ("factorized", "dense")

    def __init__(
        self,
        user_ids: np.ndarray,
        n_users: int,
        n_items: int,
        mode: str,
        mask_table: List[np.ndarray],
        user_reps: Optional[np.ndarray] = None,
        item_reps: Optional[np.ndarray] = None,
        score_rows: Optional[np.ndarray] = None,
        block_size: int = 256,
    ):
        if mode not in self._MODES:
            raise ValueError(f"unknown index mode {mode!r}")
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.mode = mode
        self.mask_table = mask_table
        self.block_size = int(block_size)
        self._user_reps = user_reps
        self._item_reps = item_reps
        self._score_rows = score_rows
        self._row_of = np.full(self.n_users, -1, dtype=np.int64)
        self._row_of[self.user_ids] = np.arange(len(self.user_ids))

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: Recommender,
        users: Optional[Sequence[int]] = None,
        mask_splits: Optional[Sequence[InteractionGraph]] = None,
        mode: str = "auto",
        block_size: int = 256,
        ann_params: Optional[dict] = None,
    ) -> "TopKIndex":
        """Precompute representations (or score rows) for ``users``.

        ``users=None`` indexes the full user id space; pass a subset to
        bound memory on large catalogues — the serving engine falls back
        to on-the-fly scoring for users left out.

        ``mode="ann"`` builds the approximate
        :class:`~repro.serve.ann.IVFIndex` instead (same query surface;
        ``ann_params`` forwards ``nlist``/``nprobe``/``pq_m``/``seed``
        etc. to :meth:`IVFIndex.from_representations`).
        """
        if mode not in ("auto", "factorized", "dense", "ann"):
            raise ValueError(f"unknown index mode {mode!r}")
        if mode == "ann":
            from repro.serve.ann import IVFIndex

            return IVFIndex.build(
                model,
                users=users,
                mask_splits=mask_splits,
                block_size=block_size,
                **(ann_params or {}),
            )
        if ann_params:
            raise ValueError("ann_params only apply to mode='ann'")
        dataset = model.dataset
        if users is None:
            user_ids = np.arange(dataset.n_users, dtype=np.int64)
        else:
            user_ids = np.unique(np.asarray(users, dtype=np.int64))
            if user_ids.size and (
                user_ids[0] < 0 or user_ids[-1] >= dataset.n_users
            ):
                raise ValueError("indexed user ids out of range")
        if mask_splits is None:
            mask_splits = [dataset.train]
        mask_table = build_mask_table(mask_splits, dataset.n_users)

        reps = None if mode == "dense" else model.representations()
        if mode == "factorized" and reps is None:
            raise ValueError(
                f"{model.name} does not expose factorized representations; "
                "use mode='dense' (or 'auto')"
            )
        if reps is not None:
            user_matrix, item_matrix = reps
            return cls(
                user_ids,
                dataset.n_users,
                dataset.n_items,
                "factorized",
                mask_table,
                user_reps=np.ascontiguousarray(user_matrix[user_ids]),
                item_reps=np.ascontiguousarray(item_matrix),
                block_size=block_size,
            )

        # Dense: one score row per indexed user, computed through the
        # exact code path the offline ranking protocol uses.
        rows = np.empty((len(user_ids), dataset.n_items), dtype=np.float64)
        for pos, user in enumerate(user_ids):
            rows[pos] = model.score_all_items(int(user))
        return cls(
            user_ids,
            dataset.n_users,
            dataset.n_items,
            "dense",
            mask_table,
            score_rows=rows,
            block_size=block_size,
        )

    def subset(self, users: Sequence[int]) -> "TopKIndex":
        """The same index restricted to ``users`` (all already indexed).

        Takes the users' rows of the stored score rows / user
        representations and shares the item side and the mask table, so
        nothing is re-scored: answers equal those of a fresh
        :meth:`build` over ``users`` (the dense build scores each user on
        its own, the factorized one slices the same user matrix).
        """
        user_ids = np.unique(np.asarray(users, dtype=np.int64))
        if user_ids.size and (user_ids[0] < 0 or user_ids[-1] >= self.n_users):
            raise ValueError("indexed user ids out of range")
        rows = self._row_of[user_ids]
        if (rows < 0).any():
            raise KeyError(f"users not in index: {user_ids[rows < 0].tolist()}")
        return TopKIndex(
            user_ids,
            self.n_users,
            self.n_items,
            self.mode,
            self.mask_table,
            user_reps=None if self._user_reps is None else self._user_reps[rows],
            item_reps=self._item_reps,
            score_rows=None if self._score_rows is None else self._score_rows[rows],
            block_size=self.block_size,
        )

    # ------------------------------------------------------------------
    @property
    def n_indexed_users(self) -> int:
        return len(self.user_ids)

    def memory_bytes(self) -> int:
        total = 0
        for arr in (self._user_reps, self._item_reps, self._score_rows):
            if arr is not None:
                total += arr.nbytes
        return total

    def contains(self, user: int) -> bool:
        return 0 <= int(user) < self.n_users and self._row_of[int(user)] >= 0

    def scores_of(self, users: Sequence[int]) -> np.ndarray:
        """``(len(users), n_items)`` score rows for indexed users."""
        u = np.asarray(users, dtype=np.int64)
        rows = self._row_of[u]
        if (rows < 0).any():
            missing = u[rows < 0].tolist()
            raise KeyError(f"users not in index: {missing}")
        if self.mode == "dense":
            return self._score_rows[rows]
        out = np.empty((len(rows), self.n_items), dtype=np.float64)
        for start in range(0, len(rows), self.block_size):
            block = rows[start : start + self.block_size]
            out[start : start + len(block)] = (
                self._user_reps[block] @ self._item_reps.T
            )
        return out

    def topk(
        self, users: Sequence[int], k: int, mask_seen: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` (items, scores) per user; seen items masked by default."""
        u = np.asarray(users, dtype=np.int64)
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = self.scores_of(u)
        k_eff = min(int(k), self.n_items)
        items = np.empty((len(u), k_eff), dtype=np.int64)
        values = np.empty((len(u), k_eff), dtype=np.float64)
        for pos, user in enumerate(u):
            masked = self.mask_table[int(user)] if mask_seen else None
            items[pos], values[pos] = topk_from_scores(scores[pos], k_eff, masked)
        return items, values

    # ------------------------------------------------------------------
    # Serialization: one .npz per index, so a built index ships with the
    # checkpoint (`repro export --index-mode ...`) instead of being
    # rebuilt on every `repro serve` boot.
    # ------------------------------------------------------------------
    def _pack_mask_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ragged per-user mask arrays → (concat items, offsets)."""
        lengths = np.fromiter(
            (len(row) for row in self.mask_table),
            dtype=np.int64,
            count=len(self.mask_table),
        )
        offsets = np.zeros(len(self.mask_table) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        items = (
            np.concatenate(self.mask_table)
            if len(self.mask_table)
            else np.empty(0, dtype=np.int64)
        ).astype(np.int64)
        return items, offsets

    @staticmethod
    def _unpack_mask_table(
        items: np.ndarray, offsets: np.ndarray
    ) -> List[np.ndarray]:
        items = np.asarray(items, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        return [
            items[offsets[u] : offsets[u + 1]] for u in range(len(offsets) - 1)
        ]

    def save(self, path: str) -> str:
        """Serialize the exact index to one ``.npz`` file, bit-exactly."""
        mask_items, mask_offsets = self._pack_mask_table()
        meta = {
            "kind": "exact",
            "mode": self.mode,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "block_size": self.block_size,
        }
        arrays = {
            "meta": np.array(json.dumps(meta)),
            "user_ids": self.user_ids,
            "mask_items": mask_items,
            "mask_offsets": mask_offsets,
        }
        if self._user_reps is not None:
            arrays["user_reps"] = self._user_reps
        if self._item_reps is not None:
            arrays["item_reps"] = self._item_reps
        if self._score_rows is not None:
            arrays["score_rows"] = self._score_rows
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        np.savez(path, **arrays)
        return path

    @classmethod
    def load(cls, path: str) -> "TopKIndex":
        with np.load(path) as payload:
            meta = json.loads(str(payload["meta"]))
            if meta.get("kind") != "exact":
                raise ValueError(
                    f"{path} holds a {meta.get('kind')!r} index; "
                    "use load_index() to dispatch on kind"
                )
            mask_table = cls._unpack_mask_table(
                payload["mask_items"], payload["mask_offsets"]
            )
            return cls(
                payload["user_ids"],
                int(meta["n_users"]),
                int(meta["n_items"]),
                meta["mode"],
                mask_table,
                user_reps=payload["user_reps"] if "user_reps" in payload.files else None,
                item_reps=payload["item_reps"] if "item_reps" in payload.files else None,
                score_rows=payload["score_rows"] if "score_rows" in payload.files else None,
                block_size=int(meta["block_size"]),
            )


def load_index(path: str) -> TopKIndex:
    """Load any saved index, dispatching exact vs ANN on its metadata."""
    with np.load(path) as payload:
        kind = json.loads(str(payload["meta"])).get("kind")
    if kind == "exact":
        return TopKIndex.load(path)
    if kind == "ivf":
        from repro.serve.ann import IVFIndex

        return IVFIndex.load(path)
    raise ValueError(f"unknown index kind {kind!r} in {path}")
