"""Benchmark harness: env knobs, result caching, factory registry."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import harness  # noqa: E402
from repro.training.experiment import ComparisonResult, TrialRecord  # noqa: E402


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        for var in ("REPRO_SEEDS", "REPRO_EPOCHS", "REPRO_PATIENCE", "REPRO_DATASETS"):
            monkeypatch.delenv(var, raising=False)
        assert harness.n_seeds() == 3
        assert harness.n_epochs() == 40
        assert harness.patience() == 8
        assert harness.datasets() == list(harness.ALL_DATASETS)

    def test_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "7")
        monkeypatch.setenv("REPRO_DATASETS", "book, movie")
        assert harness.n_seeds() == 7
        assert harness.datasets() == ["book", "movie"]

    def test_unknown_dataset_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASETS", "groceries")
        with pytest.raises(ValueError):
            harness.datasets()

    def test_ablation_datasets_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ABLATION_DATASETS", raising=False)
        assert harness.ablation_datasets() == ["music", "book"]


class TestFactories:
    def test_all_nine_models(self):
        factories = harness.all_model_factories("music")
        assert set(factories) == set(harness.MODEL_ORDER)

    def test_cgkgr_factory_uses_dataset_preset(self, tiny_dataset):
        model = harness.make_cgkgr("restaurant")(tiny_dataset, 0)
        assert model.config.depth == 3  # restaurant preset

    def test_cf_kg_split_covers_everything(self):
        subsets = harness.cf_and_kg_subsets("music")
        combined = set(subsets["cf"]) | set(subsets["kg"])
        assert combined == set(harness.MODEL_ORDER)


class TestCacheRoundTrip:
    def test_store_and_load(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        result = ComparisonResult(dataset="demo")
        result.trials.append(
            TrialRecord("M", 0, {"recall@20": 0.5, "auc": 0.7}, 1.5, 3, 10.0)
        )
        path = tmp_path / "cache" / "demo.json"
        path.parent.mkdir(parents=True)
        harness._store_cache(path, result)
        loaded = harness._load_cached(path)
        assert loaded.dataset == "demo"
        assert loaded.trials[0].metrics["auc"] == 0.7
        assert loaded.trials[0].best_epoch == 3

    def test_load_missing_returns_none(self, tmp_path):
        assert harness._load_cached(tmp_path / "nope.json") is None

    def test_cache_key_includes_scale_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        monkeypatch.setenv("REPRO_SEEDS", "1")
        a = harness._cache_path("music")
        monkeypatch.setenv("REPRO_SEEDS", "2")
        b = harness._cache_path("music")
        assert a != b

    def test_changed_source_misses_cache(self, monkeypatch, tmp_path):
        src = tmp_path / "src"
        (src / "pkg").mkdir(parents=True)
        module = src / "pkg" / "kernel.py"
        module.write_text("X = 1\n")
        monkeypatch.setattr(harness, "SRC_DIR", src)
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
        before = harness._cache_path("music")
        result = ComparisonResult(dataset="music")
        result.trials.append(TrialRecord("M", 0, {"auc": 0.7}, 1.5, 3, 10.0))
        harness._store_cache(before, result)
        assert harness._load_cached(harness._cache_path("music")) is not None
        module.write_text("X = 2\n")
        after = harness._cache_path("music")
        assert after != before
        assert harness._load_cached(after) is None


class TestFormatHelpers:
    def test_pct(self):
        assert harness.pct(0.1234) == "12.34"

    def test_mean_std(self):
        import numpy as np

        out = harness.mean_std(np.array([0.1, 0.2]))
        assert out.startswith("15.00 ±")


class TestRunAllStructure:
    def test_every_bench_module_has_run(self):
        import importlib

        from benchmarks.run_all import BENCHES

        for name, module_name, paper_id, description in BENCHES:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, "run", None)), f"{module_name} lacks run()"

    def test_benches_cover_every_paper_artifact(self):
        from benchmarks.run_all import BENCHES

        ids = {paper_id for _, _, paper_id, _ in BENCHES}
        expected = {
            "Figure 1", "Table IV", "Figure 4", "Table V", "Table VI",
            "Table VII", "Figure 5", "Figure 6", "Table VIII", "Table IX",
            "Table X", "Table XI",
        }
        assert expected <= ids

    def test_bench_files_match_list(self):
        from pathlib import Path

        from benchmarks.run_all import BENCHES

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        on_disk = {p.stem for p in bench_dir.glob("bench_*.py")}
        listed = {module.split(".")[-1] for _, module, _, _ in BENCHES}
        assert listed <= on_disk
        assert on_disk <= listed, f"unlisted benches: {on_disk - listed}"


class TestAblationKnobs:
    def test_ablation_seeds_default_capped_at_two(self, monkeypatch):
        monkeypatch.delenv("REPRO_ABLATION_SEEDS", raising=False)
        monkeypatch.setenv("REPRO_SEEDS", "5")
        assert harness.ablation_seeds() == 2
        monkeypatch.setenv("REPRO_SEEDS", "1")
        assert harness.ablation_seeds() == 1

    def test_ablation_seeds_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ABLATION_SEEDS", "4")
        assert harness.ablation_seeds() == 4

    def test_ablation_epochs_default_capped(self, monkeypatch):
        monkeypatch.delenv("REPRO_ABLATION_EPOCHS", raising=False)
        monkeypatch.setenv("REPRO_EPOCHS", "50")
        assert harness.ablation_epochs() == 30
        monkeypatch.setenv("REPRO_EPOCHS", "10")
        assert harness.ablation_epochs() == 10

    def test_ablation_epochs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ABLATION_EPOCHS", "7")
        assert harness.ablation_epochs() == 7
