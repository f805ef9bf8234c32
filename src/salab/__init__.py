"""Sparse-attention text classification lab."""

import ctypes
import os
import sys

# Thread caps must be in the environment before numpy spins up its pools.  A BLAS
# call's sums depend on its thread count, so one thread unless SALAB_THREADS (or
# the BLAS variable itself) asks for more: a checkpoint does not follow the core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("SALAB_THREADS") or "1")
# the count numpy's OpenBLAS reads first; a numpy loaded earlier read the environment before this
BLAS_THREADS = "unknown" if "numpy" in sys.modules else os.environ["OPENBLAS_NUM_THREADS"]

# glibc hands freed memory at the top of the heap back to the kernel past a
# threshold that moves with earlier allocations, so each batch faulted its arrays
# in again. Fixed at the ceiling of glibc's own rule, it stays for the next batch.
try:
    _glibc = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
except (AttributeError, ValueError, OSError):  # no confstr, no such name, or not glibc
    _glibc = False
if _glibc:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's DEFAULT_MMAP_THRESHOLD_MAX
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as its dynamic rule sets it
