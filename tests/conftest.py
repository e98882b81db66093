"""Test-suite settings shared by every test module."""

from hypothesis import settings

# The same examples on every run, so a failure reproduces from the plain
# pytest command; property tests that run the CLI can exceed the default
# per-example deadline on a slow machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
