"""Suite-wide hypothesis profile: derandomized, so every run of the suite
tries the same examples, with no example database left behind, and no
per-example deadline, since one example may enumerate a group of order 2^15."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
