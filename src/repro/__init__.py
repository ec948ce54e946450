"""AI Tax in Mobile SoCs (ISPASS 2021) — reproduction library.

The public API re-exports the pieces a downstream user needs most: the
pipeline harness, the AI-tax analyses, the model zoo, and the experiment
registry. Subsystems (simulator, SoC, OS, frameworks, processing,
capture) are importable as subpackages; see the README architecture map.

The re-exports resolve on first access (PEP 562), so ``import repro``
loads neither numpy nor the simulator until a caller asks for them.
"""

__version__ = "1.0.0"

__all__ = [
    "PipelineConfig",
    "run_pipeline",
    "PipelineRun",
    "RunCollection",
    "StageBreakdown",
    "VariabilityStats",
    "ai_tax_fraction",
    "breakdown",
    "compare_contexts",
    "run_experiment",
    "MODEL_CARDS",
    "load_model",
    "model_card",
    "SOC_SPECS",
    "make_soc",
    "__version__",
]


def __getattr__(name):
    if name in ("PipelineConfig", "run_pipeline"):
        from repro import apps as source
    elif name == "run_experiment":
        from repro import experiments as source
    elif name in ("MODEL_CARDS", "load_model", "model_card"):
        from repro import models as source
    elif name in ("SOC_SPECS", "make_soc"):
        from repro import soc as source
    elif name in __all__:
        from repro import core as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(source, name)
    return value
