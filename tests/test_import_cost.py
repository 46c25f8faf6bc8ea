"""Import hygiene: each fresh process loads only what its command runs.

Every case runs in a new interpreter (``sys.executable -c``) and asserts
on ``sys.modules`` after the imports or the command under test — never
on time, so the suite stays deterministic.  ``scipy.stats`` (~1 s and
~50 MB to import) belongs to the Wilcoxon test of ``repro compare`` only;
``scipy.sparse`` to the guided-attention backward pass only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Never loaded by a process that neither trains nor runs ``compare``.
HEAVY = ("scipy.stats", "scipy.sparse", "repro.training", "repro.eval")


def _run(code: str, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(body: str, cwd=None) -> set:
    code = textwrap.dedent(body) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
        """
    )
    return set(_run(code, cwd=cwd))


def test_import_repro_loads_no_scipy_stats_or_sparse():
    loaded = _run(
        """
        import json, sys
        import repro
        print(json.dumps([m for m in ("scipy.stats", "scipy.sparse") if m in sys.modules]))
        """
    )
    assert loaded == []


def test_cli_module_loads_no_heavy_stack():
    assert _loaded_after("import repro.cli\n") == set()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Raw artifact files and an (untrained) CG-KGR checkpoint."""
    from repro.cli import main
    from repro.core import CGKGR, paper_config
    from repro.data import generate_profile
    from repro.serve import save_checkpoint

    root = tmp_path_factory.mktemp("imports")
    assert main(["generate", "--dataset", "music", "--scale", "0.3",
                 "--out", str(root / "raw")]) == 0
    dataset = generate_profile("music", seed=0, scale=0.3)
    save_checkpoint(
        CGKGR(dataset, paper_config("music"), seed=0),
        str(root / "ckpt"),
        dataset_spec={"profile": "music", "seed": 0, "scale": 0.3},
    )
    return root


def test_prep_command_run_stays_light(artifacts):
    loaded = _loaded_after(
        """
        from repro.cli import main
        assert main(["prep", "--data-dir", "raw", "--out", "prepared"]) == 0
        """,
        cwd=artifacts,
    )
    assert loaded == set()
    assert (artifacts / "prepared" / "manifest.json").exists()


def test_serve_command_run_stays_light(artifacts):
    # The real ``repro serve`` up to the accept loop (returns at once), on
    # an ephemeral port, through the subset-index + fallback path.
    loaded = _loaded_after(
        """
        from repro.serve import RecommendationServer
        RecommendationServer.serve_forever = lambda self, *a, **k: None
        from repro.cli import main
        assert main(["serve", "--checkpoint", "ckpt", "--port", "0",
                     "--index-users", "5"]) == 0
        """,
        cwd=artifacts,
    )
    assert loaded == set()


def test_package_surface_still_resolves():
    out = _run(
        """
        import json
        import repro
        from repro import CGKGR, Trainer, paper_config, __version__
        missing = [n for n in repro.__all__ if not hasattr(repro, n)]
        try:
            repro.no_such_name
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps({
            "names": [CGKGR.__name__, Trainer.__name__, paper_config.__name__],
            "version": __version__,
            "missing": missing,
            "unknown": unknown,
        }))
        """
    )
    assert out["names"] == ["CGKGR", "Trainer", "paper_config"]
    assert out["version"] == "1.0.0"
    assert out["missing"] == []
    assert out["unknown"] == "AttributeError"


def test_wilcoxon_imports_scipy_at_call_and_keeps_its_p_value():
    out = _run(
        """
        import json, sys
        from repro.eval import wilcoxon_improvement
        before = "scipy.stats" in sys.modules
        report = wilcoxon_improvement(
            [0.31, 0.29, 0.35, 0.33, 0.30, 0.36, 0.32, 0.34],
            [0.30, 0.30, 0.31, 0.32, 0.28, 0.33, 0.33, 0.30],
        )
        print(json.dumps({"before": before, "after": "scipy.stats" in sys.modules,
                          "report": report}))
        """
    )
    assert out["before"] is False
    assert out["after"] is True
    # scipy.stats.wilcoxon's exact one-sided p for these 8 pairs.
    assert out["report"]["p_value"] == 0.046875
    assert out["report"]["significant"] is True
