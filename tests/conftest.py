"""Shared test settings.

Property tests run a fixed, bounded set of examples: derandomize=True draws
them from a seed derived from each test, and no example database is read or
written, so every run checks the same cases.
"""

from hypothesis import settings

settings.register_profile("eclu", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("eclu")
