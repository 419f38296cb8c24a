"""Hypothesis profiles: a reproducible one for Tier-1 and an exploratory one for CI.

``tier1`` (the default) is derandomized and reads no example database,
so every run checks the same examples and a defect fails the suite on
every run or on none.  ``explore`` draws fresh examples on each run; CI
runs the fuzz tests under it as a separate step, so the fuzz keeps its
reach.  Each test's own ``@settings`` (``max_examples``, ``deadline``)
apply under both.  Pick one with the ``HYPOTHESIS_PROFILE`` environment
variable.
"""
import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
