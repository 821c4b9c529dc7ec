"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and every host, and keep
# no example database between runs, so two runs of the suite test the same
# cases. Each test's own ``max_examples`` still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
