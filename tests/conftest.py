"""One hypothesis profile for every test: the same examples on every run, none replayed from a database,
so a verdict depends neither on the run nor on what an earlier run left in the checkout.  What hypothesis
writes for itself goes to one directory under the system's temporary directory, not into the checkout."""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "cylpack-hypothesis"))
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
