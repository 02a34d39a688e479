"""``python -m repro`` dispatches to :mod:`repro.cli`."""

import os
import sys

# One BLAS thread per process, set before NumPy loads its BLAS: sweep and
# step fan-out run one process per core, and a multi-threaded BLAS in each
# of them oversubscribes the cores until fan-out buys nothing (see
# ``repro.core.parallel.run_configs``).  A value the caller set still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402

sys.exit(main())
