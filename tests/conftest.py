"""Hypothesis runs derandomized and without deadlines, so that property tests
draw the same examples on every run and a slow shared machine cannot fail
them on time alone."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
