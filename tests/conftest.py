"""Test-suite settings shared by every module."""

from hypothesis import settings

# a property example can take seconds on a loaded box; no example is timed
settings.register_profile("stochgp", deadline=None)
settings.load_profile("stochgp")
