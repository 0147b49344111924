import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy is first imported: OpenBLAS's default
# pool oversubscribes a small machine as soon as another process competes
# for its cores, and the eigh-heavy tests then run many times slower.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, str(Path(__file__).parent))
