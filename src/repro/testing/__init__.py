"""Test-support machinery shipped with the package.

:mod:`repro.testing.faults` holds the fault-injection file layer used to
prove the commit pipeline crash-safe (``tests/faults/``).  It lives under
``src`` rather than ``tests`` so downstream users embedding the active
database can run the same drills against their own setups.
"""

from .faults import FaultyFS, SimulatedCrash, crash_points, record_boundaries

__all__ = [
    "FaultyFS",
    "SimulatedCrash",
    "crash_points",
    "record_boundaries",
]
