"""CG-KGR reproduction (ICDE 2022, Chen et al.).

Top-level convenience surface; see README.md for a tour.

The names below are resolved on first access (PEP 562), so ``import
repro`` — and every ``repro.<subpackage>`` import, which runs this file
first — loads only what the caller asks for.  ``from repro import
CGKGR`` imports :mod:`repro.core` then, not the training and evaluation
stacks as well.
"""

from importlib import import_module

__version__ = "1.0.0"

_LAZY = {
    "CGKGR": "repro.core",
    "CGKGRConfig": "repro.core",
    "paper_config": "repro.core",
    "make_variant": "repro.core",
    "generate_profile": "repro.data",
    "Trainer": "repro.training",
    "TrainerConfig": "repro.training",
    "run_comparison": "repro.training",
    "run_single": "repro.training",
}

__all__ = [
    "CGKGR",
    "CGKGRConfig",
    "paper_config",
    "make_variant",
    "generate_profile",
    "Trainer",
    "TrainerConfig",
    "run_comparison",
    "run_single",
    "__version__",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
