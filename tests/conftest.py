"""Test-wide settings.

Property tests draw from a derandomized hypothesis profile, so every run
tries the same examples and the suite cannot flake on a rare draw.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
