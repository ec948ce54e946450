"""Correctness tooling: static checkers and the simulation sanitizer.

The tools guard the property every regenerated figure depends on —
that a seeded simulation replays bit-identically — and the numbers it
computes. ``python -m repro check`` runs the four static checkers over
the same paths (``--tool NAME`` narrows it to one):

- :mod:`repro.analysis.lint` — an AST linter for the hazard patterns
  that have actually broken replay here (wall-clock reads, global
  RNGs, ``id()``-derived keys, process-global counters, unordered
  iteration feeding artifacts);
- :mod:`repro.analysis.semcheck` — an AST *semantic* checker for
  hazards that replay perfectly and compute the wrong number: mixed
  time/energy units (inferred from ``_us``/``_ms``/``_ns`` name
  suffixes, see :mod:`repro.analysis.unit_types`) and broken resource
  request/release protocol across yields and exception edges;
- :mod:`repro.analysis.archcheck` — a whole-program checker for
  import layering against ``.repro-arch.toml``, cross-process safety
  and hazard escape across modules;
- :mod:`repro.analysis.racecheck` — a flow-sensitive race checker for
  the cooperative DES: yield-point atomicity, Resource locksets,
  interrupt safety and lock ordering.

They share their plumbing in :mod:`repro.analysis.common` (findings,
pragmas, the per-module driver and the flow walker) and their
baselines in :mod:`repro.analysis.baseline`. At run time,
:mod:`repro.analysis.sanitize` (``REPRO_SANITIZE=1`` / ``--sanitize``)
checks engine invariants while a simulation runs, plus a dual-run
sha256 digest mode that replays a scenario twice and pinpoints the
first divergent event.

``docs/analysis.md`` and ``docs/determinism.md`` catalogue the rules
and the suppression workflow.
"""

from repro.analysis.baseline import (
    BASELINE_NAME,
    SEMCHECK_BASELINE_NAME,
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.common import Finding, LintError
from repro.analysis.lint import (
    DEFAULT_CONFIG,
    RULES,
    RULES_BY_ID,
    LintConfig,
    lint_paths,
    lint_source,
    render_findings,
)
from repro.analysis.semcheck import (
    DEFAULT_CONFIG as SEMCHECK_DEFAULT_CONFIG,
)
from repro.analysis.semcheck import (
    RULES as SEMCHECK_RULES,
)
from repro.analysis.semcheck import (
    RULES_BY_ID as SEMCHECK_RULES_BY_ID,
)
from repro.analysis.semcheck import (
    SemCheckConfig,
    semcheck_paths,
    semcheck_source,
)

__all__ = [
    "BASELINE_NAME",
    "SEMCHECK_BASELINE_NAME",
    "SEMCHECK_DEFAULT_CONFIG",
    "SEMCHECK_RULES",
    "SEMCHECK_RULES_BY_ID",
    "SemCheckConfig",
    "semcheck_paths",
    "semcheck_source",
    "BaselineEntry",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "DEFAULT_CONFIG",
    "RULES",
    "RULES_BY_ID",
    "Finding",
    "LintConfig",
    "LintError",
    "lint_paths",
    "lint_source",
    "render_findings",
    # The sanitizer drives the engine (and numpy): resolved on first
    # access (PEP 562) so the static checkers import neither.
    "DigestCollector",
    "DualRunReport",
    "EventRecord",
    "EventStream",
    "Sanitizer",
    "SanitizerError",
    "audit_accounting",
    "collecting",
    "dual_run",
]


def __getattr__(name):
    # Only the sanitizer's names get here: the checkers' are bound above.
    if name in __all__:
        from repro.analysis import sanitize

        value = globals()[name] = getattr(sanitize, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
