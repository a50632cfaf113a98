"""Performance helpers shared by hot paths and the benchmark harness.

Everything in this package is a drop-in replacement for a slower
general-purpose routine, constrained to produce *bitwise identical*
results — the perf-equivalence tests in ``tests/test_perf_equivalence.py``
hold each helper to that contract.
"""

from .percentile import percentile_linear, percentile_sorted

__all__ = ["percentile_linear", "percentile_sorted"]
