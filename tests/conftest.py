"""One hypothesis profile for every test: the same examples on every run, none replayed from a database,
so a verdict depends neither on the run nor on what an earlier run left in the checkout."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
