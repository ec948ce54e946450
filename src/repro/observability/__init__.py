"""Observability: exportable traces, probes, and self-time rollups.

The paper's core method is attributing *where time goes* — its Fig. 6
Snapdragon Profiler timelines and Fig. 7 FastRPC call flow are
observability artifacts. This package is the simulator's equivalent
instrumentation backbone:

* :mod:`repro.observability.chrome_trace` converts a
  :class:`~repro.sim.trace.TraceRecorder` into Chrome trace-event JSON
  loadable at ``chrome://tracing`` or https://ui.perfetto.dev;
* :mod:`repro.sim.probes` is the span-context API the hot paths
  (FastRPC, NNAPI, TFLite, scheduler, app stages) are wired with —
  re-exported here for convenience;
* :mod:`repro.observability.summary` rolls spans up into per-track,
  per-label exclusive/inclusive self-time tables;
* :mod:`repro.observability.scenarios` names ready-made configurations
  for ``python -m repro trace <scenario> --out trace.json``.

See ``docs/tracing.md`` for the end-to-end trace-analysis workflow.
"""

from repro.observability.chrome_trace import (
    to_chrome_trace,
    track_sort_key,
    write_chrome_trace,
)
from repro.sim.probes import counter, instant, probe
from repro.observability.summary import (
    LabelStat,
    TraceSummary,
    summarize_trace,
)

# Scenario helpers sit on top of repro.apps (which the instrumented
# layers below it import probes from); resolve them lazily so importing
# any single layer never forms a cycle through this package.
_SCENARIO_EXPORTS = (
    "SCENARIOS",
    "TraceSession",
    "record_trace",
    "scenario_config",
)


def __getattr__(name):
    if name in _SCENARIO_EXPORTS:
        from repro.observability import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "track_sort_key",
    "probe",
    "instant",
    "counter",
    "SCENARIOS",
    "TraceSession",
    "record_trace",
    "scenario_config",
    "LabelStat",
    "TraceSummary",
    "summarize_trace",
]
