"""Machine-speed probe for a shared, noisy host.

On a 2-core Xeon host shared with other tenants (Python 3.11, NumPy 2.4,
SciPy 1.17, one BLAS thread), identical netlib passes took 0.97-1.50 s of user CPU time (system time ~0, no steal),
and the median pass of back-to-back 25 s runs drifted by up to 40 % within
five minutes as the other tenants' load changed.  The probe times a fixed
mix of the work arclp does: dense Cholesky factorizations, sparse LU with
the ordering the Newton kernel uses, a Python loop that splits and
converts text as the MPS reader does, and a run of small NumPy calls.  Its
inputs are built once from a constant seed and do not depend on arclp, so
a change to the program cannot move it.  The benchmark times the probe
between requests about every half second and multiplies each pass by
:data:`REFERENCE_S` over the median probe of that pass, which gives
seconds at a fixed machine speed.  Over five back-to-back staircase runs
this cut the spread (interquartile range over median) of the run's median
pass time from 0.13 to 0.045, and of the alg2 time from 0.22 to 0.06.
"""

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the median probe time on that host, so that scaled figures read
# close to the seconds measured there.
REFERENCE_S = 0.025


class SpeedProbe:
    """Callable returning the wall time of one fixed unit of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((150, 400))
        self.dense = B @ B.T
        S = sp.random(1200, 2200, density=0.0015, random_state=rng,
                      format="csr")
        self.sparse = (S @ S.T + sp.identity(1200)).tocsc()
        self.text = "\n".join("    X%d  R%d  %r" % (j, j % 97, rng.random())
                              for j in range(10000))
        self.vec = rng.random(3000)

    def __call__(self):
        start = time.perf_counter()
        for _ in range(10):
            scipy.linalg.cho_factor(self.dense, lower=True)
        spla.splu(self.sparse, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
        total = 0.0
        for line in self.text.splitlines():
            _, _, value = line.split()
            total += float(value)
        v = self.vec
        for _ in range(500):
            v = np.sqrt(v * v + 1.0) - 0.5
        return time.perf_counter() - start
