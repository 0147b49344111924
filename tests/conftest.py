import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy is first imported: OpenBLAS's default
# pool oversubscribes a small machine as soon as another process competes
# for its cores, and the eigh-heavy tests then run many times slower.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, str(Path(__file__).parent))

import warnings  # noqa: E402

from hypothesis import settings  # noqa: E402

# Hypothesis draws the same examples on every run, so a failure reproduces
# from its test id; a test's own @settings keep the fields they set.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# A failing example makes Hypothesis' pytest plugin import libcst, whose
# import raises a DeprecationWarning under filterwarnings = error and ends
# the session with an INTERNALERROR. Imported here first, it reports as a
# plain failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401, E402
    except ImportError:
        pass
