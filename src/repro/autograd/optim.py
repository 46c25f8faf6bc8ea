"""First-order optimizers operating on :class:`Parameter` lists.

``weight_decay`` implements the paper's L2 regularizer
``λ‖Θ‖²`` (gradient contribution ``2λθ``) so that models do not have to
thread every parameter through the loss expression.

Sparse updates
--------------

With ``sparse=True`` the optimizer manages every 2-D parameter (an
embedding table) lazily: when a training step only touched a subset of
rows (the autograd ``gather_rows`` backward records which), the moment
updates and the weight-decay drift of the *untouched* rows are deferred
and replayed on demand — when the row is next gathered (via the
``_refresh_hook`` the optimizer installs on the parameter), touched by a
real gradient, or at an explicit :meth:`Optimizer.flush`.

The replay applies, per missed step, the *same floating-point
expressions* the dense path would have applied with that row's (zero)
gradient — including per-step bias corrections computed with the same
scalar ``1 - beta**t`` arithmetic — so the sparse path is **bit-identical**
to the dense path, not merely close.  Parameters that ever receive a
gradient through anything other than a row gather (matmuls, einsums over
the full table, …) are demoted to the dense path permanently, after a
full catch-up; the fallback is automatic and per-parameter.

Callers that read ``.data`` directly (snapshots, checkpoints) must call
:meth:`Optimizer.flush` first; reads through ``gather_rows`` are always
current thanks to the refresh hook.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.nn import Parameter

RowGrad = Tuple[np.ndarray, np.ndarray]  # (rows int64, vals (len(rows), d))


def merge_row_grads(
    parts: Iterable[Optional[RowGrad]], n_cols: int
) -> RowGrad:
    """Merge per-shard sparse row-gradients into one row-union gradient.

    ``parts`` is an iterable of ``(rows, vals)`` pairs (``None`` or empty
    ``rows`` = a shard that produced no gradient, an exact identity).
    ``rows`` may repeat *within* a part; duplicates are first summed in
    the part's own order.  The result is the sorted union of all rows
    with, per row, the exact sum of every contribution.

    Each output element is accumulated in a canonical order — the per-row
    contributions of all parts are sorted by value before the
    left-to-right sum — so **any permutation of ``parts`` is
    bit-identical**.  This is what lets the data-parallel reduction
    (:mod:`repro.training.parallel`) be invariant to which worker
    produced which shard.
    """
    clean: List[RowGrad] = []
    for part in parts:
        if part is None:
            continue
        rows, vals = part
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if rows.size == 0:
            continue
        vals = np.asarray(vals, dtype=np.float64).reshape(rows.size, -1)
        if vals.shape[1] != n_cols:
            raise ValueError(
                f"row-grad part has {vals.shape[1]} columns, expected {n_cols}"
            )
        urows, inverse = np.unique(rows, return_inverse=True)
        acc = np.zeros((urows.size, n_cols))
        np.add.at(acc, inverse, vals)
        clean.append((urows, acc))
    if not clean:
        return np.empty(0, dtype=np.int64), np.zeros((0, n_cols))
    if len(clean) == 1:
        return clean[0]
    union = np.unique(np.concatenate([rows for rows, _ in clean]))
    stacked = np.zeros((union.size, len(clean), n_cols))
    for slot, (rows, vals) in enumerate(clean):
        stacked[np.searchsorted(union, rows), slot] = vals
    stacked.sort(axis=1)
    out = stacked[:, 0].copy()
    for slot in range(1, len(clean)):
        out += stacked[:, slot]
    return union, out


def merge_dense_grads(
    parts: Iterable[Optional[np.ndarray]],
) -> Optional[np.ndarray]:
    """Order-invariant sum of per-shard dense gradients (``None`` skipped).

    Same canonical value-sorted accumulation as :func:`merge_row_grads`,
    elementwise over the full array; returns ``None`` when every part is.
    """
    clean = [np.asarray(part, dtype=np.float64) for part in parts if part is not None]
    if not clean:
        return None
    if len(clean) == 1:
        return clean[0].copy()
    stacked = np.stack(clean)
    stacked.sort(axis=0)
    out = stacked[0].copy()
    for slot in range(1, len(clean)):
        out += stacked[slot]
    return out


class Optimizer:
    """Base optimizer: hold parameters, apply updates, clear grads."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        weight_decay: float = 0.0,
        sparse: bool = False,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.sparse = bool(sparse)
        #: Number of completed steps (shared by the lazy replay logic).
        self._t = 0
        #: Per managed parameter: the step id each row is current through.
        self._last: Dict[int, np.ndarray] = {}
        #: Pre-reduced sparse gradients registered via :meth:`set_row_grad`,
        #: consumed (and cleared) by the next :meth:`step`.
        self._pending_rows: Dict[int, RowGrad] = {}
        #: The step through which :meth:`flush` brought every row current;
        #: until the next step, read hooks have nothing to catch up.
        self._flushed_at = 0
        if self.sparse:
            for p in self.params:
                if p.data.ndim == 2:
                    self._manage(p)

    # ------------------------------------------------------------------
    # Sparse-row bookkeeping
    # ------------------------------------------------------------------
    def _manage(self, p: Parameter) -> None:
        self._last[id(p)] = np.zeros(len(p.data), dtype=np.int64)
        p._sparse_touched = []
        p._refresh_hook = lambda idx, p=p: self._refresh(p, idx)

    def _demote(self, p: Parameter) -> None:
        """Catch every row up through the last completed dense-equivalent
        step and hand the parameter to the dense path permanently."""
        last = self._last.pop(id(p))
        target = self._t - 1  # the dense update for step _t follows
        if target > 0:
            rows = np.flatnonzero(last < target)
            if rows.size:
                self._replay(p, rows, last[rows], target)
        p._sparse_touched = None
        p._refresh_hook = None

    def _refresh(self, p: Parameter, idx) -> None:
        """``gather_rows`` read hook: apply deferred updates to ``idx``."""
        target = self._t
        if target == self._flushed_at:
            return
        last = self._last[id(p)]
        ids = np.asarray(idx, dtype=np.int64).ravel()
        behind = last[ids] < target
        if behind.any():
            # Sort only the stale ids, not every gathered id.  The stale
            # share follows the catalogue: on perfbench train-movie 97% of
            # entity-table calls find no stale id; on train-widekg about
            # half the gathered entity ids are stale, and sorting that
            # half still beats sorting all of them (median 186 -> 87 us per
            # call on a 2-core VM).
            stale = np.unique(ids[behind])
            self._replay(p, stale, last[stale], target)
            last[stale] = target

    def _replay(self, p: Parameter, rows: np.ndarray, last_rows: np.ndarray, target: int) -> None:
        """Apply the missed zero-gradient steps ``last_rows+1 .. target``."""
        for s in range(int(last_rows.min()) + 1, target + 1):
            act = rows[last_rows < s]
            self._row_step(p, act, s, None)

    def flush(self) -> None:
        """Bring every lazily-managed row fully up to date.

        Call before reading parameter data outside ``gather_rows`` (state
        snapshots, checkpoints, direct ``.data`` access).
        """
        if self._t == 0:
            return
        for p in self.params:
            last = self._last.get(id(p))
            if last is None:
                continue
            rows = np.flatnonzero(last < self._t)
            if rows.size:
                self._replay(p, rows, last[rows], self._t)
                last[rows] = self._t
        self._flushed_at = self._t

    def set_row_grad(self, p: Parameter, rows: np.ndarray, vals: np.ndarray) -> None:
        """Register a pre-reduced sparse row-gradient for the next step.

        This is the entry point for externally reduced gradients (e.g. the
        data-parallel engine's row-union merge, :func:`merge_row_grads`):
        ``rows`` must be unique and sorted, ``vals`` the per-row gradient.
        For a lazily-managed parameter the next :meth:`step` applies a row
        update exactly as if the rows had been touched by a local
        ``gather_rows`` backward; for an unmanaged (or demoted) parameter
        the rows are scattered into a dense ``p.grad`` instead, so callers
        never need to know which path a parameter is on.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).reshape(rows.size, -1)
        if rows.size == 0:
            return
        if id(p) in self._last and not p._saw_dense_grad:
            self._pending_rows[id(p)] = (rows, vals)
            return
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        p.grad[rows] += vals

    def _sparse_step(self, p: Parameter) -> bool:
        """Try the sparse update for ``p`` at (already incremented) step
        ``self._t``; returns False when the dense path must run instead."""
        pid = id(p)
        if pid not in self._last:
            return False
        pending = self._pending_rows.pop(pid, None)
        if pending is not None:
            rows, vals = pending
            last = self._last[pid]
            behind = last[rows] < self._t - 1
            if behind.any():
                stale = rows[behind]
                self._replay(p, stale, last[stale], self._t - 1)
            self._row_step(p, rows, self._t, vals)
            last[rows] = self._t
            return True
        touched_lists = p._sparse_touched or []
        if p._saw_dense_grad or (p.grad is not None and not touched_lists):
            # Gradient arrived through something other than a row gather
            # (or bookkeeping is missing for it): dense fallback, forever.
            self._demote(p)
            return False
        if touched_lists:
            touched = np.unique(
                np.concatenate([np.asarray(i, dtype=np.int64).ravel() for i in touched_lists])
            )
            last = self._last[pid]
            behind = last[touched] < self._t - 1
            if behind.any():
                stale = touched[behind]
                self._replay(p, stale, last[stale], self._t - 1)
            self._row_step(p, touched, self._t, p.grad[touched])
            last[touched] = self._t
        # No gradient at all this step: every row stays deferred.
        return True

    def _row_step(self, p: Parameter, act: np.ndarray, s: int, grad_rows: Optional[np.ndarray]) -> None:
        """Apply step ``s`` to rows ``act`` (``grad_rows=None`` = the rows'
        backward gradient was exactly zero).  Subclasses must reproduce the
        dense path's floating-point expressions verbatim."""
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _grad(self, p: Parameter) -> np.ndarray:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        if self.weight_decay:
            grad = grad + 2.0 * self.weight_decay * p.data
        return grad

    def _grad_rows(self, p: Parameter, act: np.ndarray, grad_rows: Optional[np.ndarray]) -> np.ndarray:
        """Row-sliced twin of :meth:`_grad` (same expressions per element)."""
        grad = grad_rows if grad_rows is not None else np.zeros((len(act),) + p.data.shape[1:])
        if self.weight_decay:
            grad = grad + 2.0 * self.weight_decay * p.data[act]
        return grad

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        sparse: bool = False,
    ):
        super().__init__(params, lr, weight_decay, sparse)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._t += 1
        for p in self.params:
            if self._sparse_step(p):
                continue
            grad = self._grad(p)
            if self.momentum:
                v = self._velocity.get(id(p))
                v = grad if v is None else self.momentum * v + grad
                self._velocity[id(p)] = v
                grad = v
            p.data = p.data - self.lr * grad

    def _row_step(self, p, act, s, grad_rows):
        if act.size == 0:
            return
        grad = self._grad_rows(p, act, grad_rows)
        if self.momentum:
            v = self._velocity.get(id(p))
            if v is None:
                v = np.zeros_like(p.data)
                self._velocity[id(p)] = v
            v_act = grad if s == 1 else self.momentum * v[act] + grad
            v[act] = v_act
            grad = v_act
        p.data[act] = p.data[act] - self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        sparse: bool = False,
    ):
        super().__init__(params, lr, weight_decay, sparse)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        # Bias corrections per step id, computed with the same scalar
        # arithmetic as the dense path so replayed steps match bit-exactly.
        self._bias_cache: List = [(0.0, 0.0)]

    def _bias(self, s: int):
        cache = self._bias_cache
        while len(cache) <= s:
            t = len(cache)
            cache.append((1.0 - self.beta1**t, 1.0 - self.beta2**t))
        return cache[s]

    def step(self) -> None:
        self._t += 1
        bias1, bias2 = self._bias(self._t)
        for p in self.params:
            if self._sparse_step(p):
                continue
            grad = self._grad(p)
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            m = grad * (1 - self.beta1) if m is None else self.beta1 * m + (1 - self.beta1) * grad
            v = grad**2 * (1 - self.beta2) if v is None else self.beta2 * v + (1 - self.beta2) * grad**2
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _row_step(self, p, act, s, grad_rows):
        if act.size == 0:
            return
        grad = self._grad_rows(p, act, grad_rows)
        m = self._m.get(id(p))
        v = self._v.get(id(p))
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            self._m[id(p)] = m
            self._v[id(p)] = v
        if s == 1:
            m_act = grad * (1 - self.beta1)
            v_act = grad**2 * (1 - self.beta2)
        else:
            m_act = self.beta1 * m[act] + (1 - self.beta1) * grad
            v_act = self.beta2 * v[act] + (1 - self.beta2) * grad**2
        m[act] = m_act
        v[act] = v_act
        bias1, bias2 = self._bias(s)
        m_hat = m_act / bias1
        v_hat = v_act / bias2
        p.data[act] = p.data[act] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
