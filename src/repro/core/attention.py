"""Attention mechanisms of CG-KGR.

Two mechanisms, both multi-head (H heads averaged, Eq. 4):

* **Collaboration attention** (Eq. 1-2) over user-item neighborhoods:
  ``π(u, i) = v_u^T M_{r*} v_i`` with one ``M_{r*}^h`` per head; the same
  matrix is shared between the user-centric and item-centric directions
  (Sec. III-A3).

* **Knowledge-aware attention with collaborative guidance** (Eq. 13-15,
  19): ``ω = v_h^T (f ⊙ M_r) v_t`` where the guidance signal ``f``
  (``R^d``) gates the rows of the relation matrix ``M_r``.  Using
  ``(f ⊙ M_r)[p, q] = f_p · M_r[p, q]`` the score factorizes as
  ``ω = Σ_p (f_p v_{h,p}) (M_r v_t)_p``.  The training path projects
  only the batch's *unique* (tail, relation) pairs (``M_r^h v_t``, one
  small GEMM per relation present) and gathers the projections per edge,
  so per-batch cost follows the sampled edges, not the catalogue; the
  tails are read through ``gather_rows`` and the entity table keeps a
  row-sparse gradient.  Introspection instead pre-transforms the whole
  table once (``T[n, r, h] = M_r^h v_n``, ``transform_entity_table``).
  Attention at every hop uses the entities' original embeddings (Eq. 19),
  so either form serves all hops.

Masked slots (padded neighbors) receive exactly zero weight via
:func:`~repro.autograd.ops.masked_softmax`; the ``uniform`` flag replaces
attention by mask-normalized averaging (the w/o ATT ablation).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import init, ops
from repro.autograd.nn import Module, Parameter
from repro.autograd.tensor import Tensor


def _uniform_weights(mask: np.ndarray) -> np.ndarray:
    """Mask-normalized uniform weights along the last axis."""
    m = mask.astype(np.float64)
    counts = m.sum(axis=-1, keepdims=True)
    return m / np.where(counts > 0, counts, 1.0)


def _repeat_children(x: Tensor, group_size: int) -> Tensor:
    """(B, W, d) -> (B, W*K, d), repeating each parent K times."""
    batch, width, dim = x.shape
    expanded = ops.mul(
        ops.reshape(x, (batch, width, 1, dim)), np.ones((1, 1, group_size, 1))
    )
    return ops.reshape(expanded, (batch, width * group_size, dim))


# Reusable backward-pass work buffers, keyed by (name, shape).  Safe to
# share across op instances because each buffer is filled and fully
# consumed inside a single backward closure call (never captured between
# forward and backward), and the training loop is single-threaded.
_SCRATCH: dict = {}


def _scratch(name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    buf = _SCRATCH.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype=dtype)
        _SCRATCH[name] = buf
    return buf


def _unique_keys(key: np.ndarray, n_keys: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(key, return_inverse=True)`` for keys in ``[0, n_keys)``.

    When the key space is at most a few times the number of keys (a small
    catalogue, a large evaluation batch), marking a presence table costs
    O(keys) and beats the sort; both give the same sorted keys and inverse.
    """
    if n_keys > 4 * key.size:
        uniq, inverse = np.unique(key, return_inverse=True)
        return uniq, inverse.reshape(-1)
    seen = np.zeros(n_keys, dtype=bool)
    seen[key] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[key]


def _guided_relation_scores(
    head_source: Tensor,
    guidance: Optional[Tensor],
    relation_matrices: Tensor,
    tail_rows: Tensor,
    entities: np.ndarray,
    relations: np.ndarray,
    group_size: int,
) -> Tensor:
    """Fused ``ω[b,h,w,k] = Σ_pq (f_b ⊙ v_{head_{bw}})_p M^h_{r}[p,q] v_{t,q}``.

    Semantically identical to gate + ``_repeat_children`` +
    ``transform_entity_table`` + per-edge gather + einsum, but sized by the
    batch.  ``tail_rows`` holds each edge's tail embedding (a row gather of
    the entity table).  The op deduplicates the edges' (tail, relation)
    pairs, projects each unique pair once with one ``(rows, d) @ (d, H·d)``
    GEMM per relation present (``pt[u, h] = M_r^h v_u``) and gathers the
    projections back per edge; the guidance gate and the score contraction
    run on the (B·W) *parents* (each parent's gated vector is shared by its
    K children).  The adjoint reduces the edge-level outer products onto the
    pairs with one sparse one-hot product and finishes with the same
    per-relation GEMMs; each pair's row gradient goes to one of its edges.
    ``scipy.sparse`` is imported inside that adjoint, its only use: a
    process that never runs a backward pass (prep, serve) never loads it,
    and training pays the ~0.2 s import once, at its first backward.
    """
    batch, width, dim = head_source.shape
    n_relations, n_heads, _, _ = relation_matrices.shape
    n_parents = batch * width
    cols = n_heads * dim
    ent = entities.reshape(-1)
    n_edges = ent.size
    # Relation-major key: the sorted unique pairs come grouped by relation.
    stride = int(ent.max()) + 1
    pairs, inverse = _unique_keys(
        relations.reshape(-1) * stride + ent, n_relations * stride
    )
    n_pairs = pairs.size
    bounds = np.searchsorted(pairs, np.arange(n_relations + 1) * stride)
    # (r, lo, hi) for every relation present in the batch.
    segments = [
        (r, int(bounds[r]), int(bounds[r + 1]))
        for r in np.flatnonzero(bounds[1:] > bounds[:-1])
    ]
    edge_of = np.empty(n_pairs, dtype=np.int64)  # one edge per pair
    edge_of[inverse] = np.arange(n_edges)
    rows = tail_rows.data.reshape(n_edges, dim)[edge_of]
    m_data = relation_matrices.data
    # m_rows[r][(h, p), q] = M_r^h[p, q]
    m_rows = m_data.reshape(n_relations, cols, dim)

    # pt[u, (h, p)] = (M_r^h v_u)_p for every unique (tail, relation) pair.
    pt = np.empty((n_pairs, cols))
    for r, lo, hi in segments:
        np.matmul(rows[lo:hi], m_rows[r].T, out=pt[lo:hi])
    gathered = np.take(pt, inverse, axis=0).reshape(
        n_parents, group_size * n_heads, dim
    )

    if guidance is None:
        gated = np.ascontiguousarray(head_source.data.reshape(n_parents, dim))
    else:
        gated = (head_source.data * guidance.data[:, None, :]).reshape(
            n_parents, dim
        )
    raw = np.matmul(gathered, gated[:, :, None])[..., 0]  # (B·W, K·H)
    out = np.ascontiguousarray(
        raw.reshape(batch, width, group_size, n_heads).transpose(0, 3, 1, 2)
    )  # (B, H, W, K)

    # The adjoints share g-derived intermediates; backward calls each
    # parent's fn separately, so memoize them per seed gradient.  The memo
    # holds the seed itself (an ``is`` check cannot collide the way a
    # recycled ``id`` can) and starts over for every new seed.
    memo = {}

    def shared(g):
        if memo.get("seed") is not g:
            memo.clear()
            g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(
                n_parents, group_size * n_heads
            )
            memo["seed"] = g
            memo["g2"] = g2
            # d_gated[x] = Σ_(k,h) g2[x,(k,h)] · pt_row[x,(k,h)]
            memo["d_gated"] = np.matmul(g2[:, None, :], gathered)[:, 0, :]
        return memo

    def backward_head(g):
        d_gated = shared(g)["d_gated"]
        if guidance is None:
            return d_gated.reshape(batch, width, dim)
        return d_gated.reshape(batch, width, dim) * guidance.data[:, None, :]

    def backward_guidance(g):
        d_gated = shared(g)["d_gated"]
        return (
            d_gated.reshape(batch, width, dim) * head_source.data
        ).sum(axis=1)

    def d_pt(g):
        mem = shared(g)
        if "d_pt" not in mem:
            g2 = mem["g2"]
            outer = _scratch("gs_outer", (n_parents, group_size * n_heads, dim))
            np.multiply(g2[:, :, None], gated[:, None, :], out=outer)
            # Segment-sum of the edge rows onto their pairs as a one-hot
            # (pairs × edges) CSR product: O(edges · H·d), in edge order.
            from scipy import sparse

            onehot = sparse.csr_matrix(
                (np.ones(n_edges), (inverse, np.arange(n_edges))),
                shape=(n_pairs, n_edges),
            )
            mem["d_pt"] = onehot @ outer.reshape(n_edges, cols)
        return mem["d_pt"]

    def backward_relations(g):
        # d_M[r,(h,p),q] = Σ_{u in r} d_pt[u,(h,p)] v_{u,q}
        dpt = d_pt(g)
        grad = np.zeros((n_relations, cols, dim))
        for r, lo, hi in segments:
            np.matmul(dpt[lo:hi].T, rows[lo:hi], out=grad[r])
        return grad.reshape(n_relations, n_heads, dim, dim)

    def backward_tails(g):
        # d_v[u,q] = Σ_(h,p) d_pt[u,(h,p)] M_r[(h,p),q], placed on one of
        # the pair's edges; the gather_rows adjoint sums it into the table.
        dpt = d_pt(g)
        d_rows = np.empty((n_pairs, dim))
        for r, lo, hi in segments:
            np.matmul(dpt[lo:hi], m_rows[r], out=d_rows[lo:hi])
        grad = np.zeros((n_edges, dim))
        grad[edge_of] = d_rows
        return grad.reshape(tail_rows.shape)

    parents = [head_source]
    backwards = [backward_head]
    if guidance is not None:
        parents.append(guidance)
        backwards.append(backward_guidance)
    parents += [relation_matrices, tail_rows]
    backwards += [backward_relations, backward_tails]
    return Tensor._make(out, tuple(parents), tuple(backwards), "relation_scores")


def _collab_scores(center: Tensor, relation_matrix: Tensor, neighbors: Tensor) -> Tensor:
    """Fused ``π[b,h,k] = Σ_de center[b,d] M^h[d,e] neighbors[b,k,e]``.

    Equivalent to ``einsum("bd,hde,bke->bhk", ...)`` but runs as two plain
    GEMMs per direction (center·M, then a batched contraction against the
    neighbors), skipping the generic einsum dispatch on the epoch hot path.
    """
    batch, dim = center.shape
    n_heads = relation_matrix.shape[0]
    m_data = relation_matrix.data
    m_flat = m_data.transpose(1, 0, 2).reshape(dim, n_heads * dim)
    t1 = (center.data @ m_flat).reshape(batch, n_heads, dim)  # (B, H, e)
    nb = neighbors.data
    out = np.matmul(t1, nb.transpose(0, 2, 1))  # (B, H, K)

    memo = {}  # per seed gradient, as in _guided_relation_scores

    def d_t1(g):
        if memo.get("seed") is not g:
            memo.clear()
            memo["seed"] = g
            memo["d_t1"] = np.matmul(g, nb)  # (B, H, e)
        return memo["d_t1"]

    def backward_center(g):
        return d_t1(g).reshape(batch, n_heads * dim) @ m_flat.T

    def backward_matrix(g):
        grad = center.data.T @ d_t1(g).reshape(batch, n_heads * dim)
        return grad.reshape(dim, n_heads, dim).transpose(1, 0, 2)

    def backward_neighbors(g):
        return np.matmul(g.transpose(0, 2, 1), t1)  # (B, K, e)

    return Tensor._make(
        out,
        (center, relation_matrix, neighbors),
        (backward_center, backward_matrix, backward_neighbors),
        "collab_scores",
    )


class CollaborationAttention(Module):
    """Multi-head collaboration attention over interaction neighborhoods."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        self.dim = dim
        self.n_heads = n_heads
        # One M_{r*} per head: (H, d, d).
        self.relation_matrix = Parameter(init.xavier_uniform((n_heads, dim, dim), rng))

    def scores(self, center: Tensor, neighbors: Tensor) -> Tensor:
        """Unnormalized ``π`` (Eq. 1) per head: (B, H, K)."""
        return _collab_scores(center, self.relation_matrix, neighbors)

    def forward(
        self,
        center: Tensor,
        neighbors: Tensor,
        mask: np.ndarray,
        uniform: bool = False,
    ) -> Tensor:
        """Neighborhood summary ``v_S`` (Eq. 3-5): (B, d).

        Parameters
        ----------
        center:
            (B, d) embeddings of the attending node.
        neighbors:
            (B, K, d) embeddings of its sampled neighbors.
        mask:
            (B, K) validity; padded slots get zero weight.
        uniform:
            Replace attention by uniform averaging (w/o ATT ablation).
        """
        if uniform:
            weights_np = _uniform_weights(mask)  # (B, K)
            weighted = ops.einsum("bk,bke->be", Tensor(weights_np), neighbors)
            return weighted
        raw = self.scores(center, neighbors)  # (B, H, K)
        weights = ops.masked_softmax(raw, mask[:, None, :], axis=-1)
        # The neighbor values are head-independent, so averaging the H
        # per-head summaries (Eq. 4) equals contracting with the
        # head-averaged weights — and never materializes (B, H, d).
        mean_weights = ops.mean(weights, axis=1)  # (B, K)
        return ops.einsum("bk,bke->be", mean_weights, neighbors)

    def attention_weights(
        self, center: Tensor, neighbors: Tensor, mask: np.ndarray
    ) -> np.ndarray:
        """Head-averaged normalized weights ``π̂`` for introspection."""
        raw = self.scores(center, neighbors)
        weights = ops.masked_softmax(raw, mask[:, None, :], axis=-1)
        return weights.numpy().mean(axis=1)


class KnowledgeAwareAttention(Module):
    """Knowledge-aware attention with collaborative guidance (Eq. 13-19)."""

    def __init__(self, dim: int, n_heads: int, n_relations: int, rng: np.random.Generator):
        self.dim = dim
        self.n_heads = n_heads
        self.n_relations = n_relations
        # M_r per relation and head: (R, H, d, d).
        self.relation_matrices = Parameter(
            init.xavier_uniform((n_relations, n_heads, dim, dim), rng)
        )

    def transform_entity_table(self, entity_table: Tensor) -> Tensor:
        """``T[n, r, h, p] = (M_r^h v_n)_p`` for the full entity table.

        Computed once per forward pass and reused at every hop, since
        attention always scores against original entity embeddings.
        """
        return ops.einsum(
            "nq,rhpq->nrhp", entity_table, self.relation_matrices
        )

    def _gate(self, head_vectors: Tensor, guidance: Optional[Tensor]) -> Tensor:
        """Guidance-gated heads ``f ⊙ v_h`` (all-one gate when ``None``)."""
        if guidance is None:
            return head_vectors
        return ops.mul(
            head_vectors,
            ops.reshape(guidance, (guidance.shape[0], 1, guidance.shape[1])),
        )

    def scores(
        self,
        head_vectors: Tensor,
        guidance: Optional[Tensor],
        transformed_tails: Tensor,
    ) -> Tensor:
        """Unnormalized ``ω`` (Eq. 14/19): (B, H, E).

        Parameters
        ----------
        head_vectors:
            (B, E, d) attention embedding of each edge's head (the parent
            node), already repeated per child slot.
        guidance:
            (B, d) guidance signal ``f(v_u, v_i)``, or ``None`` for the
            w/o CG ablation (all-one gate).
        transformed_tails:
            (B, E, H, d) gathered rows of the transformed entity table for
            each edge's (tail, relation).
        """
        gated = self._gate(head_vectors, guidance)
        return ops.einsum("bed,behd->bhe", gated, transformed_tails)

    def scores_fused(
        self,
        head_source: Tensor,
        guidance: Optional[Tensor],
        tail_rows: Tensor,
        entities: np.ndarray,
        relations: np.ndarray,
        group_size: int,
    ) -> Tensor:
        """Hot-path equivalent of gate + repeat + :meth:`scores` working
        straight off the *unrepeated* (B, W, d) parent heads: (B, H, W, K).

        ``tail_rows`` are the (B, E, d) original embeddings of the edges'
        tails, read from the entity table with
        :func:`~repro.autograd.ops.gather_rows` (so the table receives a
        row-sparse gradient and stays on the lazy sparse optimizer path).
        Only the batch's unique (tail, relation) pairs are projected, see
        :func:`_guided_relation_scores`.
        """
        return _guided_relation_scores(
            head_source,
            guidance,
            self.relation_matrices,
            tail_rows,
            entities,
            relations,
            group_size,
        )

    def forward(
        self,
        head_source: Tensor,
        guidance: Optional[Tensor],
        transformed_tails: Optional[Tensor],
        child_values: Tensor,
        mask: np.ndarray,
        group_size: int,
        uniform: bool = False,
        tail_rows: Optional[Tensor] = None,
        entities: Optional[np.ndarray] = None,
        relations: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Per-parent neighborhood summaries (Eq. 16/18): (B, W, d).

        ``E = W * group_size`` edges are grouped into W parents with
        ``group_size`` children each; softmax normalizes within a group.

        ``head_source`` holds the *unrepeated* (B, W, d) parent heads; the
        paths that need per-edge heads repeat them internally.

        ``child_values`` are the *updated* child embeddings from the
        deeper hop (Alg. 1's cascade), shape (B, E, d).

        Scores come from ``transformed_tails`` (pre-transformed table rows,
        the introspection-friendly path) or, when it is ``None``, from the
        fused ``tail_rows``/``entities``/``relations`` inputs.
        """
        batch, n_edges, dim = child_values.shape
        width = n_edges // group_size
        values = ops.reshape(child_values, (batch, width, group_size, dim))
        grouped_mask = mask.reshape(batch, width, group_size)
        if uniform:
            weights_np = _uniform_weights(grouped_mask)  # (B, W, K)
            return ops.einsum("bwk,bwkd->bwd", Tensor(weights_np), values)
        if transformed_tails is not None:
            heads = _repeat_children(head_source, group_size)
            raw = self.scores(heads, guidance, transformed_tails)  # (B, H, E)
            raw = ops.reshape(raw, (batch, self.n_heads, width, group_size))
        else:
            raw = self.scores_fused(
                head_source, guidance, tail_rows, entities, relations,
                group_size,
            )  # (B, H, W, K)
        weights = ops.masked_softmax(raw, grouped_mask[:, None, :, :], axis=-1)
        # Head-mean before the value contraction (values are shared across
        # heads — see CollaborationAttention.forward): (B, W, K) weights.
        mean_weights = ops.mean(weights, axis=1)
        return ops.einsum("bwk,bwkd->bwd", mean_weights, values)

    def attention_weights(
        self,
        head_source: Tensor,
        guidance: Optional[Tensor],
        transformed_tails: Tensor,
        mask: np.ndarray,
        group_size: int,
    ) -> np.ndarray:
        """Head-averaged normalized ``ω̂`` (Eq. 15) for introspection.

        ``head_source`` is unrepeated (B, W, d), as in :meth:`forward`.
        """
        batch, width, _ = head_source.shape
        heads = _repeat_children(head_source, group_size)
        raw = self.scores(heads, guidance, transformed_tails)
        raw = ops.reshape(raw, (batch, self.n_heads, width, group_size))
        weights = ops.masked_softmax(
            raw, mask.reshape(batch, width, group_size)[:, None, :, :], axis=-1
        )
        return weights.numpy().mean(axis=1).reshape(batch, width * group_size)
