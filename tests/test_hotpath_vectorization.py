"""Hot-path vectorization: CSR sampler, batched negatives, sparse
optimizer equivalence, cached mask tables, and the trainer bugfixes that
rode along (degree-weighted crash, patience semantics, registry loss)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.autograd.optim import SGD, Adam
from repro.baselines.bprmf import BPRMF
from repro.core import CGKGR
from repro.core.config import CGKGRConfig
from repro.data.negative_sampling import (
    PositivePairIndex,
    sample_training_negatives,
)
from repro.data.synthetic import generate_profile
from repro.eval.ranking import build_mask_table, evaluate_topk
from repro.graph.sampling import (
    NeighborSampler,
    _build_table,
    _csr_from_pairs,
    _sample_table_csr,
)
from repro.obs.sentinel import Tolerance, compare_runs
from repro.training.trainer import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def music_dataset():
    return generate_profile("music", seed=3)


# ----------------------------------------------------------------------
# Satellite: degree-weighted sampling crash (sampling.py)
# ----------------------------------------------------------------------
class TestDegreeWeightCrashRegression:
    def _adjacency(self, node):
        # 4 neighbors; the weight function below zeroes out two of them.
        return [(0, 10), (0, 11), (1, 12), (1, 13)]

    def test_loop_zero_weight_support_smaller_than_size(self):
        # support (2 non-zero weights) < size (3) used to raise
        # "Fewer non-zero entries in p than size" from rng.choice.
        weight_of = lambda rel, other: 1.0 if other in (10, 12) else 0.0
        neighbors, _, has = _build_table(
            self._adjacency, 1, 3, np.random.default_rng(0), weight_of=weight_of
        )
        assert has[0]
        # The with-replacement fallback still honours the weights: only
        # positively-weighted neighbors appear.
        assert set(neighbors[0]) <= {10, 12}

    def test_loop_all_zero_weights_fall_back_to_uniform(self):
        weight_of = lambda rel, other: 0.0
        neighbors, _, has = _build_table(
            self._adjacency, 1, 3, np.random.default_rng(0), weight_of=weight_of
        )
        assert has[0]
        assert set(neighbors[0]) <= {10, 11, 12, 13}

    def test_vectorized_zero_weight_support_smaller_than_size(self):
        csr = _csr_from_pairs([0, 0, 0, 0], [10, 11, 12, 13], 1)
        weights = np.array([1.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            neighbors, _, has = _sample_table_csr(csr, 3, rng, weights=weights)
            assert has[0]
            assert set(neighbors[0]) <= {10, 12}

    def test_vectorized_all_zero_weights_fall_back_to_uniform(self):
        csr = _csr_from_pairs([0, 0, 0, 0], [10, 11, 12, 13], 1)
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(30):
            neighbors, _, _ = _sample_table_csr(csr, 3, rng, weights=np.zeros(4))
            seen.update(int(v) for v in neighbors[0])
        assert seen == {10, 11, 12, 13}

    def test_degree_strategy_end_to_end(self, music_dataset):
        ds = music_dataset
        for impl in ("vectorized", "loop"):
            sampler = NeighborSampler(
                ds.kg, ds.train, 4, 4, 4,
                np.random.default_rng(0), kg_strategy="degree", impl=impl,
            )
            sampler.resample()  # no crash, tables populated
            assert sampler._kg_neighbors.shape == (ds.kg.n_entities, 4)


# ----------------------------------------------------------------------
# Tentpole: vectorized sampler correctness & determinism
# ----------------------------------------------------------------------
class TestVectorizedSampler:
    def test_same_seed_same_tables(self, music_dataset):
        ds = music_dataset
        make = lambda seed: NeighborSampler(
            ds.kg, ds.train, 4, 4, 4, np.random.default_rng(seed)
        )
        a, b = make(5), make(5)
        for key, value in a.state().items():
            assert np.array_equal(value, b.state()[key]), key
        c = make(6)
        assert any(
            not np.array_equal(value, c.state()[key])
            for key, value in a.state().items()
        )

    def test_sampled_neighbors_are_true_neighbors(self, music_dataset):
        ds = music_dataset
        sampler = NeighborSampler(
            ds.kg, ds.train, 4, 4, 4, np.random.default_rng(1)
        )
        for node in range(ds.kg.n_entities):
            if not sampler._kg_has[node]:
                assert len(ds.kg.neighbors(node)) == 0
                continue
            true_edges = set(ds.kg.neighbors(node))
            for rel, other in zip(
                sampler._kg_relations[node], sampler._kg_neighbors[node]
            ):
                assert (int(rel), int(other)) in true_edges

    def test_without_replacement_when_enough_neighbors(self, music_dataset):
        # The user→item adjacency has unique entries per user, so rows with
        # at least ``size`` interactions must sample distinct items.  (The
        # KG table samples *edges* without replacement; a neighbor entity
        # can legitimately repeat there via different relations.)
        ds = music_dataset
        size = 4
        sampler = NeighborSampler(
            ds.kg, ds.train, size, size, size, np.random.default_rng(2)
        )
        counts = sampler._user_csr.counts
        checked = 0
        for user in np.flatnonzero(counts >= size)[:50]:
            assert len(set(sampler._user_items[user])) == size
            checked += 1
        assert checked > 0

    def test_loop_and_vectorized_have_matching_has_flags(self, music_dataset):
        ds = music_dataset
        vec = NeighborSampler(ds.kg, ds.train, 4, 4, 4, np.random.default_rng(0))
        loop = NeighborSampler(
            ds.kg, ds.train, 4, 4, 4, np.random.default_rng(0), impl="loop"
        )
        assert np.array_equal(vec._user_has, loop._user_has)
        assert np.array_equal(vec._item_has, loop._item_has)
        assert np.array_equal(vec._kg_has, loop._kg_has)


# ----------------------------------------------------------------------
# Tentpole: vectorized negative sampling
# ----------------------------------------------------------------------
class TestVectorizedNegatives:
    def test_avoids_positives(self, music_dataset):
        ds = music_dataset
        allpos = ds.all_positive_items()
        neg = sample_training_negatives(
            ds.train, allpos, ds.n_items, np.random.default_rng(0)
        )
        assert len(neg) == len(ds.train.users)
        for user, item in zip(ds.train.users, neg):
            assert int(item) not in allpos.get(int(user), set())

    def test_same_seed_same_negatives(self, music_dataset):
        ds = music_dataset
        allpos = ds.all_positive_items()
        a = sample_training_negatives(
            ds.train, allpos, ds.n_items, np.random.default_rng(9)
        )
        b = sample_training_negatives(
            ds.train, allpos, ds.n_items, np.random.default_rng(9)
        )
        assert np.array_equal(a, b)

    def test_prebuilt_index_matches_fresh(self, music_dataset):
        ds = music_dataset
        allpos = ds.all_positive_items()
        index = PositivePairIndex(allpos, ds.n_items)
        a = sample_training_negatives(
            ds.train, allpos, ds.n_items, np.random.default_rng(4), index=index
        )
        b = sample_training_negatives(
            ds.train, allpos, ds.n_items, np.random.default_rng(4)
        )
        assert np.array_equal(a, b)

    def test_index_contains(self, music_dataset):
        ds = music_dataset
        allpos = ds.all_positive_items()
        index = PositivePairIndex(allpos, ds.n_items)
        users = ds.train.users[:20]
        items = ds.train.items[:20]
        assert index.contains(users, items).all()

    def test_loop_impl_same_contract(self, music_dataset):
        ds = music_dataset
        allpos = ds.all_positive_items()
        neg = sample_training_negatives(
            ds.train, allpos, ds.n_items, np.random.default_rng(0), impl="loop"
        )
        for user, item in zip(ds.train.users, neg):
            assert int(item) not in allpos.get(int(user), set())

    def test_saturated_user_soft_fallback_terminates(self):
        # A user who owns the whole catalogue cannot get a clean negative;
        # both impls must fall back after max_tries instead of spinning.
        from repro.graph.interactions import InteractionGraph

        inter = InteractionGraph(
            [(0, i) for i in range(4)], n_users=1, n_items=4
        )
        allpos = {0: set(range(4))}
        for impl in ("vectorized", "loop"):
            neg = sample_training_negatives(
                inter, allpos, 4, np.random.default_rng(0), max_tries=5, impl=impl
            )
            assert neg.shape == (4,)
            assert ((neg >= 0) & (neg < 4)).all()


# ----------------------------------------------------------------------
# Tentpole: sparse optimizer ≡ dense optimizer, bit for bit
# ----------------------------------------------------------------------
def _make_embedding_toy(seed):
    """A model-free toy: one embedding table, gather-only gradients."""
    from repro.autograd import ops
    from repro.autograd.nn import Parameter

    rng = np.random.default_rng(seed)
    table = Parameter(rng.normal(size=(12, 4)))
    return table


def _toy_step(table, rows, seed):
    from repro.autograd import ops

    rng = np.random.default_rng(seed)
    idx = np.asarray(rows, dtype=np.int64)
    gathered = ops.gather_rows(table, idx)
    weights = rng.normal(size=gathered.shape)
    return ops.sum(ops.mul(gathered, weights))


class TestSparseOptimizerEquivalence:
    @pytest.mark.parametrize(
        "opt_factory",
        [
            lambda ps, sparse: Adam(ps, lr=0.01, weight_decay=1e-3, sparse=sparse),
            lambda ps, sparse: Adam(ps, lr=0.01, weight_decay=0.0, sparse=sparse),
            lambda ps, sparse: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-3, sparse=sparse),
            lambda ps, sparse: SGD(ps, lr=0.05, weight_decay=1e-3, sparse=sparse),
        ],
    )
    def test_toy_partial_rows_bit_exact(self, opt_factory):
        # Touch different row subsets each step; some rows stay untouched
        # for many steps, so the lazy catch-up replay is exercised hard.
        plans = [[0, 1, 2], [3], [0, 5], [7, 8, 9], [1], [11], [0, 1, 2, 3]]
        results = {}
        for sparse in (False, True):
            table = _make_embedding_toy(0)
            opt = opt_factory([table], sparse)
            for step, rows in enumerate(plans):
                loss = _toy_step(table, rows, step)
                opt.zero_grad()
                loss.backward()
                opt.step()
            opt.flush()
            results[sparse] = table.data.copy()
        assert np.array_equal(results[False], results[True])

    def test_toy_mid_training_gather_refresh_hook(self):
        # Reading *stale* rows between steps must transparently catch them
        # up (the gather_rows refresh hook) without breaking equivalence.
        reads = {}
        results = {}
        for sparse in (False, True):
            table = _make_embedding_toy(1)
            opt = Adam([table], lr=0.02, weight_decay=1e-3, sparse=sparse)
            observed = []
            for step, rows in enumerate([[0, 1], [2], [3], [0]]):
                loss = _toy_step(table, rows, step)
                opt.zero_grad()
                loss.backward()
                opt.step()
                with no_grad():
                    from repro.autograd import ops

                    observed.append(
                        ops.gather_rows(table, np.arange(12)).numpy().copy()
                    )
            opt.flush()
            reads[sparse] = observed
            results[sparse] = table.data.copy()
        assert np.array_equal(results[False], results[True])
        for a, b in zip(reads[False], reads[True]):
            assert np.array_equal(a, b)

    def test_reads_after_flush_skip_catch_up_until_next_step(self, monkeypatch):
        # Between a flush and the next step every row is current, so reads
        # (an evaluation pass) do no catch-up work; after further steps the
        # read hook catches stale rows up again, still bit-exact.
        from repro.autograd import ops

        def train(opt, table, plans, offset):
            for step, rows in enumerate(plans):
                loss = _toy_step(table, rows, offset + step)
                opt.zero_grad()
                loss.backward()
                opt.step()

        results = {}
        for sparse in (False, True):
            table = _make_embedding_toy(3)
            opt = Adam([table], lr=0.02, weight_decay=1e-3, sparse=sparse)
            train(opt, table, [[0, 1], [2], [5, 6]], 0)
            opt.flush()
            with monkeypatch.context() as patch, no_grad():
                # Any look at the per-row step bookkeeping would fail.
                patch.setattr(opt, "_last", {})
                after_flush = ops.gather_rows(table, np.arange(12)).numpy().copy()
            train(opt, table, [[3], [0]], 3)
            with no_grad():
                after_steps = ops.gather_rows(table, np.arange(12)).numpy().copy()
            results[sparse] = (after_flush, after_steps)
        for a, b in zip(results[False], results[True]):
            assert np.array_equal(a, b)

    def test_dense_grad_demotes_parameter(self):
        # A 2-D parameter used through a matmul must fall back to the
        # dense path — and still match it exactly.
        from repro.autograd import ops
        from repro.autograd.nn import Parameter

        results = {}
        for sparse in (False, True):
            rng = np.random.default_rng(2)
            weight = Parameter(rng.normal(size=(6, 6)))
            opt = Adam([weight], lr=0.01, weight_decay=1e-3, sparse=sparse)
            for step in range(4):
                x = np.random.default_rng(step).normal(size=(3, 6))
                loss = ops.sum(ops.matmul(ops.ensure_tensor(x), weight))
                opt.zero_grad()
                loss.backward()
                opt.step()
            opt.flush()
            results[sparse] = weight.data.copy()
        assert np.array_equal(results[False], results[True])

    @pytest.mark.parametrize("sparse_updates", [False, True])
    def test_cgkgr_fit_invariant_to_sparse_flag(self, music_dataset, sparse_updates):
        # Record the fitted parameters once per flag and compare: the full
        # training loop (resampling, eval snapshots, early-stop restore)
        # must be bit-identical with and without lazy sparse updates.
        if not hasattr(TestSparseOptimizerEquivalence, "_fit_cache"):
            TestSparseOptimizerEquivalence._fit_cache = {}
        cache = TestSparseOptimizerEquivalence._fit_cache
        ds = music_dataset
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=4, batch_size=64)
        model = CGKGR(ds, cfg, seed=0)
        trainer = Trainer(
            model,
            TrainerConfig(
                epochs=2, eval_task="topk", eval_max_users=20, seed=0,
                sparse_updates=sparse_updates,
            ),
        )
        trainer.fit()
        # The user table must actually be lazily managed when enabled,
        # otherwise this test proves nothing.
        if sparse_updates:
            assert id(model.user_embedding.weight) in trainer.optimizer._last
        cache[sparse_updates] = [p.data.copy() for p in model.parameters()]
        if len(cache) == 2:
            for a, b in zip(cache[False], cache[True]):
                assert np.array_equal(a, b)


class TestGuidedAttentionFollowsTheBatch:
    """The fused guided-attention kernel projects only the batch's unique
    (tail, relation) pairs and reads their tails through ``gather_rows``:
    its memory follows the edges, not the catalogue, and the entity table
    keeps a row-sparse gradient (so sparse Adam never demotes it)."""

    @pytest.fixture(scope="class")
    def movie_fits(self):
        from repro.core import paper_config

        ds = generate_profile("movie", seed=0)
        fits = {}
        for sparse_updates in (False, True):
            model = CGKGR(ds, paper_config("movie"), seed=0)
            trainer = Trainer(
                model,
                TrainerConfig(
                    epochs=2, eval_task="topk", eval_max_users=20, seed=0,
                    sparse_updates=sparse_updates,
                ),
            )
            weight = model.entity_embedding.weight
            dense_flags = []
            step = trainer.optimizer.step

            def watched_step(step=step, weight=weight, flags=dense_flags):
                flags.append(weight._saw_dense_grad)
                step()

            trainer.optimizer.step = watched_step
            trainer.fit()
            fits[sparse_updates] = (model, trainer, dense_flags)
        return fits

    def test_entity_table_never_demoted(self, movie_fits):
        model, trainer, dense_flags = movie_fits[True]
        weight = model.entity_embedding.weight
        assert dense_flags and not any(dense_flags)
        assert id(weight) in trainer.optimizer._last
        assert weight._refresh_hook is not None

    def test_sparse_and_dense_fits_bit_identical(self, movie_fits):
        sparse_model = movie_fits[True][0]
        dense_model = movie_fits[False][0]
        for a, b in zip(sparse_model.parameters(), dense_model.parameters()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("size,n_keys", [(64, 40), (64, 256), (64, 257), (50, 10_000)])
    def test_unique_keys_matches_np_unique(self, size, n_keys):
        from repro.core.attention import _unique_keys

        key = np.random.default_rng(size + n_keys).integers(0, n_keys, size)
        uniq, inverse = _unique_keys(key, n_keys)
        want_uniq, want_inverse = np.unique(key, return_inverse=True)
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(inverse, want_inverse.reshape(-1))

    def test_fused_op_allocations_follow_the_batch(self):
        """One forward + backward on a 200,000-row table allocates nothing
        larger than edges × H·d.  The table's own (N, d) gradient comes
        from the gather_rows adjoint, which is the contract of every
        embedding lookup, so the backward is measured on the fused op."""
        import tracemalloc

        from repro.autograd import Tensor, ops
        from repro.autograd.nn import Parameter
        from repro.core.attention import KnowledgeAwareAttention

        rng = np.random.default_rng(0)
        n_entities, n_relations, heads, dim = 200_000, 8, 2, 4
        batch, width, k = 16, 4, 4
        edges = batch * width * k
        limit = edges * heads * dim  # elements
        table = Parameter(rng.normal(size=(n_entities, dim)))
        head = Tensor(rng.normal(size=(batch, width, dim)), requires_grad=True)
        guidance = Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
        attn = KnowledgeAwareAttention(dim, heads, n_relations, rng)
        entities = rng.integers(0, n_entities, size=(batch, width * k))
        rels = rng.integers(0, n_relations, size=(batch, width * k))
        seed = rng.normal(size=(batch, heads, width, k))

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tails = ops.gather_rows(table, entities)
            out = attn.scores_fused(head, guidance, tails, entities, rels, k)
            fwd_peak = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = [fn(seed) for fn in out._backward_fns]
            bwd_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

        for node in out._topological_order():
            if node._parents:
                assert node.data.size <= limit, node._op
        assert all(g.size <= limit for g in grads)
        # A few edge-sized float64 arrays (about 5 measured); the old
        # full-table projection alone held N·R·H·d = 12.8M elements.
        budget = 16 * limit * 8
        assert fwd_peak <= budget
        assert bwd_peak <= budget


# ----------------------------------------------------------------------
# Tentpole: loop-vs-vectorized metric parity through the run registry
# ----------------------------------------------------------------------
class TestImplMetricParity:
    def test_compare_runs_shows_no_regression(
        self, music_dataset, tmp_path, monkeypatch
    ):
        from repro.obs.runs import RunStore

        ds = music_dataset
        store = RunStore(tmp_path / "runs")
        records = {}
        for impl in ("loop", "vectorized"):
            if impl == "loop":
                import repro.training.trainer as trainer_mod

                original = sample_training_negatives

                def loop_negatives(train, allpos, n_items, rng, index=None):
                    return original(train, allpos, n_items, rng, impl="loop")

                monkeypatch.setattr(
                    trainer_mod, "sample_training_negatives", loop_negatives
                )
            else:
                monkeypatch.undo()
            cfg = CGKGRConfig(
                dim=8, depth=1, n_heads=2, kg_sample_size=4, batch_size=64
            )
            model = CGKGR(ds, cfg, seed=0)
            if impl == "loop":
                model.sampler = NeighborSampler(
                    ds.kg, ds.train,
                    cfg.user_sample_size, cfg.item_sample_size,
                    cfg.kg_sample_size, np.random.default_rng(1),
                    cfg.kg_sampling, impl="loop",
                )
            trainer = Trainer(
                model,
                TrainerConfig(
                    epochs=3, eval_task="topk", eval_max_users=30, seed=0,
                    run_store=store,
                ),
            )
            trainer.fit()
            records[impl] = trainer.last_run_record
        # The two impls consume different rng streams, so on a 30-user
        # eval the metrics differ by sampling noise (measured ±0.05
        # absolute across seeds); the tolerance bounds that noise, and the
        # run is fully deterministic so the verdict cannot flap.
        report = compare_runs(
            records["loop"],
            records["vectorized"],
            tolerances={
                "recall@20": Tolerance(rel=0.30, abs=0.06),
                "loss": Tolerance(rel=0.20, abs=0.02),
                "final_loss": Tolerance(rel=0.20, abs=0.02),
            },
        )
        regressed = [v.metric for v in report.verdicts if v.status == "regressed"]
        assert not regressed, f"vectorized path regressed: {regressed}"


# ----------------------------------------------------------------------
# Satellites: patience semantics + registry loss
# ----------------------------------------------------------------------
class _ScriptedEvalTrainer(Trainer):
    """Trainer whose eval metric follows a script indexed by eval round."""

    def __init__(self, model, config, script):
        super().__init__(model, config)
        self._script = list(script)
        self._round = 0

    def evaluate(self):
        value = self._script[min(self._round, len(self._script) - 1)]
        self._round += 1
        return {self.config.eval_metric: value}


def _micro_bprmf(micro_dataset):
    return BPRMF(micro_dataset, dim=4, seed=0)


class TestPatienceSemantics:
    def test_eval_every_1_counts_epochs(self, micro_dataset):
        trainer = _ScriptedEvalTrainer(
            _micro_bprmf(micro_dataset),
            TrainerConfig(
                epochs=30, early_stop_patience=4, eval_every=1,
                eval_task="topk", eval_metric="recall@20", seed=0,
            ),
            script=[0.5] + [0.1] * 40,
        )
        result = trainer.fit()
        assert result.stopped_early
        assert result.best_epoch == 1
        # best at 1, patience 4 → stop at epoch 5 exactly (unchanged
        # behavior for eval_every=1).
        assert result.history[-1]["epoch"] == 5

    def test_eval_every_2_patience_measured_in_epochs(self, micro_dataset):
        trainer = _ScriptedEvalTrainer(
            _micro_bprmf(micro_dataset),
            TrainerConfig(
                epochs=30, early_stop_patience=4, eval_every=2,
                eval_task="topk", eval_metric="recall@20", seed=0,
            ),
            script=[0.5] + [0.1] * 40,
        )
        result = trainer.fit()
        assert result.stopped_early
        assert result.best_epoch == 2
        # Pre-fix the counter ticked once per eval *round*, so the stop
        # came at epoch 2 + 2*4 = 10 evals → epoch 18 (4 rounds after
        # best); in epochs, 4 stale epochs after best-epoch 2 → stop at
        # the first eval epoch with epoch - best >= 4, which is epoch 6.
        assert result.history[-1]["epoch"] == 6


class TestRunRegistryLoss:
    def test_records_best_epoch_loss_and_final_loss(self, micro_dataset, tmp_path):
        from repro.obs.runs import RunStore

        store = RunStore(tmp_path / "runs")
        trainer = _ScriptedEvalTrainer(
            _micro_bprmf(micro_dataset),
            TrainerConfig(
                epochs=8, early_stop_patience=3, eval_every=1,
                eval_task="topk", eval_metric="recall@20", seed=0,
                run_store=store,
            ),
            # Best at the second eval epoch, then strictly worse.
            script=[0.3, 0.6, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
        )
        result = trainer.fit()
        record = trainer.last_run_record
        assert result.best_epoch == 2
        best_loss = next(
            r["loss"] for r in result.history if r["epoch"] == result.best_epoch
        )
        assert record.metrics["loss"] == best_loss
        assert record.metrics["final_loss"] == result.history[-1]["loss"]
        # The fix matters only when training kept going past the best
        # epoch; make sure this scenario actually exercises it.
        assert result.history[-1]["epoch"] > result.best_epoch


# ----------------------------------------------------------------------
# Tentpole: mask-table cache
# ----------------------------------------------------------------------
class TestMaskTable:
    def test_vectorized_table_matches_reference(self, music_dataset):
        ds = music_dataset
        table = build_mask_table([ds.train, ds.valid], ds.n_users)
        for user in range(ds.n_users):
            expected = np.unique(
                np.asarray(
                    list(ds.train.items_of(user)) + list(ds.valid.items_of(user)),
                    dtype=np.int64,
                )
            )
            assert np.array_equal(table[user], expected)

    def test_evaluate_topk_accepts_prebuilt_table(self, music_dataset):
        ds = music_dataset
        model = BPRMF(ds, dim=8, seed=0)
        table = build_mask_table([ds.train], ds.n_users)
        fresh = evaluate_topk(
            model, ds.valid, k_values=(10,), mask_splits=[ds.train],
            max_users=20, rng=np.random.default_rng(0),
        )
        cached = evaluate_topk(
            model, ds.valid, k_values=(10,), mask_splits=[ds.train],
            max_users=20, rng=np.random.default_rng(0), mask_table=table,
        )
        assert fresh == cached
