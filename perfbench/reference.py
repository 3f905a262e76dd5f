"""A fixed reference computation that measures the host's current speed.

The benchmark host is a VM on a shared machine.  Its speed moves by up to
1.8x within a second (a pure-Python loop took 26-48 ms in consecutive
calls) and its average over a run drifts by 10-20% over minutes, for
compute-bound and memory-bound code alike.  worker.py times `Reference`
right after set-up and after every stage; run.py scales each stage's wall
time by the reference times around it (`run.stage_times`) and the set-up
time by the first one (`run.setup_time`).

The reference mixes the kinds of work cuspdiv does (small SuperLU
factorizations, a dense LAPACK eigensolve, streaming numpy and interpreted
Python) on inputs that do not involve cuspdiv, so no change to cuspdiv can
move it.  NOMINAL_S only fixes the scale of the scaled times: one call took
a median of 38 ms when the benchmark was defined (2-core x86-64 KVM guest,
Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread).
"""

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_S = 0.030
N_GRID = 20             # 5-point Laplacian on an N_GRID^2 grid, for SuperLU
N_SPLU = 16             # factorizations of it per call
N_DENSE = 300           # symmetric matrix for the dense eigensolve
N_STREAM = 500_000      # float64 vector streamed through numpy
N_LOOP = 60_000         # iterations of the interpreted loop


class Reference:
    """Fixed inputs are built once; each call returns its wall time in s.

    A call allocates nothing large: with one 3600-unknown SuperLU
    factorization and temporaries in the numpy part, the worker's peak RSS
    on mesh-assembly rose by 6 MB and jumped by another 9 MB in half of the
    passes.  Small factorizations and preallocated arrays left it steady.
    """

    def __init__(self):
        one = np.ones(N_GRID)
        lap = sp.diags([-one[:-1], 2.0 * one, -one[:-1]], [-1, 0, 1])
        eye = sp.identity(N_GRID)
        self.lap = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        self.rhs = np.ones(self.lap.shape[0])
        rng = np.random.default_rng(0)
        m = rng.standard_normal((N_DENSE, N_DENSE))
        self.dense = m + m.T
        self.work = np.empty_like(self.dense)
        self.stream = rng.random(N_STREAM)
        self.buf = np.empty(N_STREAM)
        self()                       # the first call pays lazy set-up

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(N_SPLU):
            spla.splu(self.lap).solve(self.rhs)
        np.copyto(self.work, self.dense)
        scipy.linalg.eigh(self.work, eigvals_only=True, overwrite_a=True)
        x, buf = self.stream, self.buf
        for _ in range(2):
            np.multiply(x, x, out=buf)
            np.add(buf, 1.0, out=buf)
            np.sqrt(buf, out=buf)
            float(buf.sum())
        d = {}
        for i in range(N_LOOP):
            d[i % 997] = d.get(i % 997, 0) + i
        return time.perf_counter() - t0
