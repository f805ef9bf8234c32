"""Sparse-attention text classification lab."""

import os

# Thread caps must be in the environment before numpy spins up its pools.
_threads = os.environ.get("SALAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
