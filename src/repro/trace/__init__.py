"""Opt-in observability: cycle timelines, metrics, Perfetto export.

Usage (through the public :class:`repro.Session` facade)::

    import repro

    session = repro.Session(repro.HB_16x8, trace=True)
    session.launch(kernel, args)
    session.run()
    session.trace.write_chrome("trace.json")   # open in ui.perfetto.dev
    print(session.trace.summary())

A :class:`Trace` is a :mod:`repro.probe` subscriber; everything here is
zero-cost when off (untraced runs are bit-identical in cycles to the
seed; golden tests pin this).
"""

from .metrics import MetricSeries, MetricsRegistry
from .perfetto import to_chrome, validate_chrome, write_chrome
from .report import format_report, trace_report
from .tracer import Trace, TraceConfig

__all__ = [
    "Trace",
    "TraceConfig",
    "MetricsRegistry",
    "MetricSeries",
    "to_chrome",
    "write_chrome",
    "validate_chrome",
    "trace_report",
    "format_report",
]
