"""Statistical significance testing (Sec. IV-D).

The paper runs Wilcoxon signed-rank tests between the best and
second-best model over the 25 evaluation trials (5 partitions × 5 seeds)
at a 95% confidence level.  :func:`bootstrap_mean_diff` additionally
provides a nonparametric confidence interval on a mean difference, used
by the cross-run regression sentinel (:mod:`repro.obs.sentinel`) where
trials are independent rather than paired.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def wilcoxon_improvement(
    candidate: Sequence[float],
    reference: Sequence[float],
    alpha: float = 0.05,
) -> Dict[str, float]:
    """One-sided Wilcoxon signed-rank test: is candidate > reference?

    Returns the p-value and a ``significant`` flag at the given level.
    Identical paired samples (all differences zero) are reported as not
    significant with p = 1.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError("paired samples must have equal length")
    if len(candidate) < 2:
        raise ValueError("need at least two paired trials")
    differences = candidate - reference
    if np.allclose(differences, 0.0):
        return {"p_value": 1.0, "significant": False, "mean_improvement": 0.0}
    # scipy.stats costs ~1 s and ~50 MB to import; only this test uses it.
    from scipy import stats

    result = stats.wilcoxon(candidate, reference, alternative="greater")
    return {
        "p_value": float(result.pvalue),
        "significant": bool(result.pvalue < alpha),
        "mean_improvement": float(differences.mean()),
    }


def bootstrap_mean_diff(
    candidate: Sequence[float],
    reference: Sequence[float],
    n_boot: int = 2000,
    alpha: float = 0.05,
    seed: int = 0,
) -> Dict[str, float]:
    """Percentile-bootstrap CI of ``mean(candidate) - mean(reference)``.

    The samples are resampled independently (unpaired), matching how the
    regression sentinel compares per-trial metrics of two separate runs.
    Returns the point estimate, the ``1 - alpha`` interval, and a
    ``significant`` flag (interval excludes zero).
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if len(candidate) < 2 or len(reference) < 2:
        raise ValueError("need at least two samples on each side")
    rng = np.random.default_rng(seed)
    cand_draws = rng.choice(candidate, size=(n_boot, len(candidate)), replace=True)
    ref_draws = rng.choice(reference, size=(n_boot, len(reference)), replace=True)
    diffs = cand_draws.mean(axis=1) - ref_draws.mean(axis=1)
    low, high = np.quantile(diffs, [alpha / 2.0, 1.0 - alpha / 2.0])
    return {
        "mean_diff": float(candidate.mean() - reference.mean()),
        "ci_low": float(low),
        "ci_high": float(high),
        "significant": bool(low > 0.0 or high < 0.0),
    }
