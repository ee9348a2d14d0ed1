"""Make the property tests repeatable: every run draws the same examples.

Each test keeps its own ``max_examples`` and ``deadline``; the profile only
derives Hypothesis's seed from the test instead of drawing a new one.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
