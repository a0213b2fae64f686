"""Scalar inference-strength prediction: biLSTM-attention regressor,
corpus handling, training harness, and model-behavior probes."""

import os

# One BLAS thread unless the caller set another count. With more, a
# matrix product sums in a different order, so a checkpoint's bytes would
# depend on the machine's core count. This runs before any submodule
# imports numpy, and numpy's BLAS reads these variables when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

# the environment variable that caps `tune`'s fold workers
WORKERS_ENV = "SIL_WORKERS"
