"""Shared benchmark harness.

Every bench regenerates one table or figure of the paper on the synthetic
stand-ins and returns its formatted text (also printed and saved under
``benchmarks/results/``).  Scale knobs via environment variables:

* ``REPRO_SEEDS``    — trials per comparison (paper: 25; default 3);
* ``REPRO_EPOCHS``   — training epoch cap (default 40);
* ``REPRO_PATIENCE`` — early-stop patience (paper: 10; default 8);
* ``REPRO_DATASETS`` — comma list subset of music,book,movie,restaurant;
* ``REPRO_EVAL_USERS`` — test-time ranking users cap (default 80).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import (
    BPRMF,
    CKAN,
    CKE,
    KGAT,
    KGCN,
    KGNNLS,
    NFM,
    RippleNet,
)
from repro.core import CGKGR, paper_config
from repro.data.dataset import RecDataset
from repro.obs.events import default_tracer
from repro.training import TrainerConfig

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

ALL_DATASETS = ("music", "book", "movie", "restaurant")

#: Paper display names, in Table IV's row order.
MODEL_ORDER = [
    "BPRMF", "NFM", "CKE", "RippleNet", "KGNN-LS", "KGCN", "KGAT", "CKAN", "CG-KGR",
]


def n_seeds(default: int = 3) -> int:
    return int(os.environ.get("REPRO_SEEDS", default))


def n_epochs(default: int = 40) -> int:
    return int(os.environ.get("REPRO_EPOCHS", default))


def patience(default: int = 8) -> int:
    return int(os.environ.get("REPRO_PATIENCE", default))


def eval_users(default: int = 80) -> int:
    return int(os.environ.get("REPRO_EVAL_USERS", default))


def datasets(default: Sequence[str] = ALL_DATASETS) -> List[str]:
    raw = os.environ.get("REPRO_DATASETS")
    if not raw:
        return list(default)
    chosen = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = set(chosen) - set(ALL_DATASETS)
    if unknown:
        raise ValueError(f"unknown datasets in REPRO_DATASETS: {sorted(unknown)}")
    return chosen


def trainer_config(seed: int = 0, task: str = "topk") -> TrainerConfig:
    metric = "recall@20" if task == "topk" else "auc"
    return TrainerConfig(
        epochs=n_epochs(),
        early_stop_patience=patience(),
        eval_task=task,
        eval_metric=metric,
        eval_every=2,
        eval_max_users=30,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Model factories (per-dataset hyper-parameters follow the paper's
# official-code defaults, scaled like the datasets themselves).
# ----------------------------------------------------------------------
def make_cgkgr(dataset_name: str) -> Callable[[RecDataset, int], CGKGR]:
    def factory(dataset: RecDataset, seed: int) -> CGKGR:
        return CGKGR(dataset, paper_config(dataset_name), seed=seed)

    return factory


def all_model_factories(dataset_name: str) -> Dict[str, Callable]:
    """The full 9-model comparison of Tables IV/V."""

    def kgat_factory(dataset: RecDataset, seed: int) -> KGAT:
        model = KGAT(dataset, dim=16, n_layers=2, neighbor_size=4, seed=seed)
        model.pretrain(epochs=10)  # Sec. IV-B: BPRMF-initialized
        return model

    factories: Dict[str, Callable] = {
        "BPRMF": lambda ds, seed: BPRMF(ds, dim=16, lr=1e-2, seed=seed),
        "NFM": lambda ds, seed: NFM(ds, dim=16, lr=1e-2, seed=seed),
        "CKE": lambda ds, seed: CKE(ds, dim=16, lr=1e-2, seed=seed),
        "RippleNet": lambda ds, seed: RippleNet(ds, dim=16, n_hops=2, set_size=16, lr=1e-2, seed=seed),
        "KGNN-LS": lambda ds, seed: KGNNLS(ds, dim=16, depth=1, neighbor_size=4, lr=1e-2, seed=seed),
        "KGCN": lambda ds, seed: KGCN(ds, dim=16, depth=1, neighbor_size=4, lr=1e-2, seed=seed),
        "KGAT": kgat_factory,
        "CKAN": lambda ds, seed: CKAN(ds, dim=16, n_hops=2, set_size=16, lr=1e-2, seed=seed),
        "CG-KGR": make_cgkgr(dataset_name),
    }
    return factories


def cf_and_kg_subsets(dataset_name: str) -> Dict[str, Dict[str, Callable]]:
    """Figure 1's grouping: best CF-based vs KG-based models."""
    factories = all_model_factories(dataset_name)
    return {
        "cf": {k: factories[k] for k in ("BPRMF", "NFM")},
        "kg": {
            k: factories[k]
            for k in ("CKE", "RippleNet", "KGCN", "KGNN-LS", "KGAT", "CKAN", "CG-KGR")
        },
    }


def save_result(name: str, text: str) -> None:
    """Print and persist a bench's formatted output."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(text)


# ----------------------------------------------------------------------
# Machine-readable bench metrics. Benches publish headline numbers keyed
# by trajectory category ("topk", "ctr", "serving", "efficiency") while
# formatting their text output; run_all.py drains them into the repo-root
# BENCH_<category>.json trajectory files and the run registry, which is
# what the regression sentinel compares across runs (docs/runs.md).
# Values may be per-trial lists — the sentinel bootstraps those.
# ----------------------------------------------------------------------
_BENCH_METRICS: Dict[str, Dict[str, object]] = {}


def record_bench_metrics(category: str, metrics: Dict[str, object]) -> None:
    """Merge headline metrics into the named trajectory category."""
    _BENCH_METRICS.setdefault(category, {}).update(metrics)


def pop_bench_metrics() -> Dict[str, Dict[str, object]]:
    """Drain everything recorded since the last drain."""
    global _BENCH_METRICS
    out, _BENCH_METRICS = _BENCH_METRICS, {}
    return out


def pct(x: float) -> str:
    """Render a [0,1] metric as a percentage with paper-style precision."""
    return f"{100.0 * x:.2f}"


def mean_std(values: np.ndarray) -> str:
    return f"{100.0 * values.mean():.2f} ± {100.0 * values.std():.2f}"


# ----------------------------------------------------------------------
# Cached full comparison: Tables IV/V/VI and Figures 1/4 all read from the
# same trained model zoo, so it is trained once per (dataset, scale-knobs)
# and cached on disk under benchmarks/results/cache/.
# ----------------------------------------------------------------------
import json

from repro.training import run_comparison
from repro.training.experiment import ComparisonResult, TrialRecord

TOPK_GRID = (1, 5, 10, 20, 50, 100)


def src_fingerprint() -> str:
    """sha256 over every ``*.py`` under ``src/`` (relative path + bytes).

    Part of every cache key, so results trained by other code are never
    reused.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_path(dataset_name: str) -> Path:
    key = (
        f"{dataset_name}_s{n_seeds()}_e{n_epochs()}_p{patience()}"
        f"_u{eval_users()}_{src_fingerprint()}"
    )
    cache_dir = RESULTS_DIR / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    return cache_dir / f"{key}.json"


def _load_cached(path: Path) -> Optional[ComparisonResult]:
    if not path.exists():
        return None
    raw = json.loads(path.read_text())
    result = ComparisonResult(dataset=raw["dataset"])
    for t in raw["trials"]:
        result.trials.append(
            TrialRecord(
                model=t["model"],
                seed=t["seed"],
                metrics=t["metrics"],
                time_per_epoch=t["time_per_epoch"],
                best_epoch=t["best_epoch"],
                total_time=t["total_time"],
            )
        )
    return result


def _store_cache(path: Path, result: ComparisonResult) -> None:
    payload = {
        "dataset": result.dataset,
        "trials": [
            {
                "model": t.model,
                "seed": t.seed,
                "metrics": {k: float(v) for k, v in t.metrics.items()},
                "time_per_epoch": t.time_per_epoch,
                "best_epoch": t.best_epoch,
                "total_time": t.total_time,
            }
            for t in result.trials
        ],
    }
    path.write_text(json.dumps(payload, indent=1))


def full_comparison(dataset_name: str) -> ComparisonResult:
    """Train the 9-model zoo on one dataset under the protocol, cached."""
    path = _cache_path(dataset_name)
    cached = _load_cached(path)
    if cached is not None:
        default_tracer().event(
            "cache_hit", phase="full_comparison", dataset=dataset_name
        )
        return cached
    with default_tracer().span("full_comparison", dataset=dataset_name):
        result = run_comparison(
            dataset_name,
            all_model_factories(dataset_name),
            seeds=list(range(n_seeds())),
            trainer_config=trainer_config(),
            topk_values=TOPK_GRID,
            eval_ctr_too=True,
            max_eval_users=eval_users(),
        )
    _store_cache(path, result)
    return result


def ablation_datasets() -> List[str]:
    """Datasets for the CG-KGR-only ablation benches.

    Default music+book (the depth-1 profiles) to bound wall-clock; set
    ``REPRO_ABLATION_DATASETS`` to widen (the paper reports all four).
    """
    raw = os.environ.get("REPRO_ABLATION_DATASETS", "music,book")
    return [name.strip() for name in raw.split(",") if name.strip()]


def ablation_seeds(default: Optional[int] = None) -> int:
    """Trials for the CG-KGR-only ablation benches.

    The zoo benches amortize training across five tables/figures; the
    ablation benches do not, so they default to fewer trials —
    ``min(REPRO_SEEDS, 2)`` — overridable via ``REPRO_ABLATION_SEEDS``.
    """
    raw = os.environ.get("REPRO_ABLATION_SEEDS")
    if raw is not None:
        return int(raw)
    return min(n_seeds(), 2) if default is None else default


def ablation_epochs() -> int:
    """Epoch cap for ablation benches (``REPRO_ABLATION_EPOCHS``,
    default ``min(REPRO_EPOCHS, 30)``)."""
    raw = os.environ.get("REPRO_ABLATION_EPOCHS")
    if raw is not None:
        return int(raw)
    return min(n_epochs(), 30)


def cached_comparison(
    prefix: str,
    dataset_name: str,
    factories: Dict[str, Callable],
    topk_values: Sequence[int] = (20,),
    eval_ctr_too: bool = False,
    dataset_factory=None,
) -> ComparisonResult:
    """Generic disk-cached run_comparison for the ablation benches."""
    seeds = ablation_seeds()
    epochs = ablation_epochs()
    key = (
        f"{prefix}_{dataset_name}_s{seeds}_e{epochs}"
        f"_p{patience()}_u{eval_users()}_{src_fingerprint()}"
    )
    cache_dir = RESULTS_DIR / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{key}.json"
    cached = _load_cached(path)
    if cached is not None:
        default_tracer().event("cache_hit", phase=prefix, dataset=dataset_name)
        return cached
    config = trainer_config()
    config = TrainerConfig(**{**config.__dict__, "epochs": epochs})
    with default_tracer().span(f"comparison:{prefix}", dataset=dataset_name):
        result = run_comparison(
            dataset_name,
            factories,
            seeds=list(range(seeds)),
            trainer_config=config,
            topk_values=topk_values,
            eval_ctr_too=eval_ctr_too,
            max_eval_users=eval_users(),
            dataset_factory=dataset_factory,
        )
    _store_cache(path, result)
    return result
