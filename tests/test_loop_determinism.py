"""Determinism of the training loop across the whole model zoo.

``Trainer.train_epoch`` is the one epoch loop every model trains
through.  Its contract is *bit-identity at a fixed seed*: two fits with
the same seed leave every parameter byte-for-byte equal and produce the
same loss curve and eval metrics, under both objectives.  Attaching a
tracer (which times the epoch's phases and measures grad norms) must not
move a single bit either.  Results are diffed with ``np.array_equal``
and ``==`` (no tolerances).
"""

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.core import CGKGR, CGKGRConfig
from repro.obs import Tracer
from repro.training import Trainer, TrainerConfig

ZOO = [
    "cg-kgr", "bprmf", "nfm", "cke", "kgat", "ripplenet",
    "kgcn", "kgnn-ls", "ckan", "lightgcn", "ngcf",
]

OBJECTIVES = ["ce", "bpr"]

SMALL_KWARGS = {
    "kgcn": {"depth": 1, "neighbor_size": 2},
    "kgnn-ls": {"depth": 1, "neighbor_size": 2},
    "ripplenet": {"n_hops": 2, "set_size": 4},
    "ckan": {"n_hops": 1, "set_size": 4},
    "kgat": {"n_layers": 1, "neighbor_size": 2},
    "lightgcn": {"n_layers": 2},
    "ngcf": {"n_layers": 2},
}


def _build(name, dataset, seed=5):
    if name == "cg-kgr":
        cfg = CGKGRConfig(dim=8, depth=1, n_heads=2, kg_sample_size=2, batch_size=32)
        return CGKGR(dataset, cfg, seed=seed)
    model = make_baseline(name, dataset, seed=seed, dim=8, **SMALL_KWARGS.get(name, {}))
    # Several batches per epoch, the last one partial.
    model.batch_size = 32
    return model


def _fit(dataset, name, objective="ce", epochs=2, seed=5, **config):
    model = _build(name, dataset, seed=seed)
    trainer = Trainer(
        model,
        TrainerConfig(
            epochs=epochs,
            eval_task="ctr",
            eval_metric="auc",
            objective=objective,
            seed=seed,
            **config,
        ),
    )
    result = trainer.fit()
    return model.state_dict(), result, trainer.last_run_record


def _assert_bit_identical(name, first, second):
    params_a, result_a = first[0], first[1]
    params_b, result_b = second[0], second[1]
    assert set(params_a) == set(params_b)
    for key in params_a:
        assert np.array_equal(params_a[key], params_b[key]), (
            f"{name}: parameter {key!r} diverged between two equal-seed fits, "
            f"max abs diff {np.max(np.abs(params_a[key] - params_b[key]))}"
        )
    # history carries the loss curve *and* the per-epoch eval metric.
    assert result_a.history == result_b.history
    assert result_a.best_metric == result_b.best_metric
    assert result_a.best_epoch == result_b.best_epoch


class TestZooMatrix:
    """Every model x objective: two equal-seed fits, bit-identical."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("name", ZOO)
    def test_two_fits_bit_identical(self, tiny_dataset, name, objective):
        first = _fit(tiny_dataset, name, objective)
        second = _fit(tiny_dataset, name, objective)
        _assert_bit_identical(name, first, second)

    @pytest.mark.parametrize("name", ["cg-kgr", "kgat", "ripplenet"])
    def test_three_epoch_fits_bit_identical(self, tiny_dataset, name):
        """Longer fits: each epoch redraws neighbors and negatives from the
        trainer's stream, and the third epoch must still repeat exactly."""
        first = _fit(tiny_dataset, name, epochs=3)
        second = _fit(tiny_dataset, name, epochs=3)
        assert [r["epoch"] for r in first[1].history] == [1, 2, 3]
        _assert_bit_identical(name, first, second)


class TestTracedFit:
    @pytest.mark.parametrize("name", ["cg-kgr", "kgat"])
    def test_traced_fit_bit_identical_to_untraced(self, tiny_dataset, name):
        """Phase emission and grad-norm measurement (both on only with a
        tracer) leave the numerics untouched."""
        tracer = Tracer()
        untraced = _fit(tiny_dataset, name)
        traced = _fit(tiny_dataset, name, tracer=tracer)
        _assert_bit_identical(name, untraced, traced)
        phases = {e["name"] for e in tracer.events if e["kind"] == "complete"}
        assert {"batch.forward", "batch.backward", "optimizer.step"} <= phases


class TestRunRecords:
    def test_run_record_curves_identical(self, tiny_dataset, tmp_path):
        """Persisted RunRecords of two equal-seed fits diff clean: same
        config hash, loss curve and metrics."""
        from repro.obs import RunStore

        store = RunStore(str(tmp_path / "runs"))
        rec_a = _fit(tiny_dataset, "cg-kgr", run_store=store)[2]
        rec_b = _fit(tiny_dataset, "cg-kgr", run_store=store)[2]
        assert rec_a is not None and rec_b is not None
        assert rec_a.run_id != rec_b.run_id
        assert rec_a.config_hash == rec_b.config_hash
        assert rec_a.history == rec_b.history
        assert rec_a.metrics == rec_b.metrics
