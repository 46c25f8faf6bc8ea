"""User-item interaction bipartite graph.

Holds the observed positive interactions ``y_{u,i} = 1`` as parallel id
arrays plus per-node adjacency, and answers the queries the models need:
a user's interacted items ``S(u)`` and an item's interacting users
``S_UI(i)`` (Table I of the paper).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np


class InteractionGraph:
    """Bipartite graph of positive user-item interactions."""

    def __init__(
        self,
        pairs: Iterable[Tuple[int, int]],
        n_users: int,
        n_items: int,
    ):
        pair_list = [(int(u), int(i)) for u, i in pairs]
        if pair_list:
            arr = np.asarray(pair_list, dtype=np.int64)
        else:
            arr = np.empty((0, 2), dtype=np.int64)
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        if len(arr):
            if arr[:, 0].max() >= self.n_users or arr[:, 0].min() < 0:
                raise ValueError("user id out of range")
            if arr[:, 1].max() >= self.n_items or arr[:, 1].min() < 0:
                raise ValueError("item id out of range")
        self.users: np.ndarray = arr[:, 0] if len(arr) else np.empty(0, dtype=np.int64)
        self.items: np.ndarray = arr[:, 1] if len(arr) else np.empty(0, dtype=np.int64)

        user_items: Dict[int, List[int]] = {}
        item_users: Dict[int, List[int]] = {}
        for u, i in pair_list:
            user_items.setdefault(u, []).append(i)
            item_users.setdefault(i, []).append(u)
        self._user_items = user_items
        self._item_users = item_users

    # ------------------------------------------------------------------
    @property
    def n_interactions(self) -> int:
        return len(self.users)

    def items_of(self, user: int) -> List[int]:
        """``S(u)``: the user's historically interacted items."""
        return self._user_items.get(int(user), [])

    def users_of(self, item: int) -> List[int]:
        """``S_UI(i)``: the item's historically interacting users."""
        return self._item_users.get(int(item), [])

    def item_set_of(self, user: int) -> Set[int]:
        return set(self.items_of(user))

    def density(self) -> float:
        """Fraction of the user×item matrix that is observed."""
        total = self.n_users * self.n_items
        return self.n_interactions / total if total else 0.0

    def users_with_interactions(self) -> np.ndarray:
        """Sorted ids of users having at least one interaction."""
        return np.asarray(sorted(self._user_items), dtype=np.int64)

    def pairs(self) -> np.ndarray:
        """``(n, 2)`` array of (user, item) pairs."""
        return np.stack([self.users, self.items], axis=1) if self.n_interactions else np.empty((0, 2), dtype=np.int64)

    def to_set(self) -> Set[Tuple[int, int]]:
        return set(zip(self.users.tolist(), self.items.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InteractionGraph(users={self.n_users}, items={self.n_items}, "
            f"interactions={self.n_interactions})"
        )


def build_mask_table(
    mask_splits: Sequence[InteractionGraph], n_users: int
) -> List[np.ndarray]:
    """Per-user sorted arrays of items to exclude from ranking candidates.

    One pass over the mask splits (train, and optionally validation) yields
    an index array per user that :func:`repro.eval.ranking.rank_items` and
    the serving index (:mod:`repro.serve.index`) apply directly — the two
    consumers share one masking code path, so evaluation and serving
    cannot drift apart.  It lives here, beside the splits it reads, so a
    serving process needs no part of :mod:`repro.eval`.

    Built by one lexsort over the concatenated splits (sorted-unique per
    user by construction); the result is reusable across eval epochs —
    pass it to :func:`repro.eval.ranking.evaluate_topk` via
    ``mask_table`` to avoid rebuilding (the
    :class:`~repro.training.trainer.Trainer` caches it).
    """
    users = np.concatenate(
        [np.asarray(split.users, dtype=np.int64) for split in mask_splits]
    )
    items = np.concatenate(
        [np.asarray(split.items, dtype=np.int64) for split in mask_splits]
    )
    if not len(users):
        return [np.empty(0, dtype=np.int64) for _ in range(n_users)]
    order = np.lexsort((items, users))
    users, items = users[order], items[order]
    # Drop consecutive duplicates so each user's slice is sorted-unique.
    keep = np.ones(len(users), dtype=bool)
    keep[1:] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
    users, items = users[keep], items[keep]
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(users, minlength=n_users), out=offsets[1:])
    return [items[offsets[u] : offsets[u + 1]] for u in range(n_users)]
