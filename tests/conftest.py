import os

import numpy as np


def pytest_report_header(config):
    # the advect2d_uniform_q2 golden's LS(EA) is roundoff-limited and depends on the BLAS thread count
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"numpy {np.__version__}; BLAS threads: {threads}"
