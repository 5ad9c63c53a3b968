"""Shared test configuration.

Every Hypothesis property runs under one fixed profile: derandomized, with
no deadline and no example database, so a Tier-1 run draws the same
examples on every machine and every run.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, deadline=None, database=None)
settings.load_profile("fixed")
