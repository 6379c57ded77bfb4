"""repro.sanitize: a dynamic PGAS race and synchronization checker.

Usage (the Session flag is the normal entry point)::

    import repro

    session = repro.Session(repro.HB_16x8, sanitize=True)
    session.launch(kernel, args)
    session.run()
    print(session.sanitizer.summary())
    assert session.sanitizer.clean

or, from a shell::

    python -m repro sanitize PR --size small
    python -m repro sanitize fixture --json

See :mod:`repro.sanitize.checker` for the happens-before model and
``docs/MODEL.md`` ("Memory model & synchronization") for the rules the
checker enforces.
"""

from .checker import Finding, SanitizeConfig, Sanitizer
from .fixture import DEADLOCK_FIXTURE, FIXTURE, fixture_args
from .report import format_report, sanitize_report

__all__ = [
    "DEADLOCK_FIXTURE",
    "FIXTURE",
    "Finding",
    "SanitizeConfig",
    "Sanitizer",
    "fixture_args",
    "format_report",
    "sanitize_report",
]
