"""A fixed reference computation that measures the machine's current speed.

On a shared virtual machine the CPU time of the same work moves by up to
about 2x between minutes (see README.md), so the benchmark scales its times
to a reference speed.  Between operations it runs one *chunk*: a fixed
computation written with numpy and scipy only, so that no change to the
program changes it.  A chunk is made of parts, each of one kind of work the
solver does:

- ``scalar``: a scalar Python loop (ODE steps, re-marches, coefficient
  lookups);
- ``small``: numpy calls on 129-element arrays (lattice lines, stage builds);
- ``block``: random draws and numpy calls on 16384-element arrays (Monte
  Carlo path blocks);
- ``lu``: a sparse LU solve (the reflection systems).

The speed drift is not the same for every kind of work: interpreter-bound
code moves more than long-array numpy code.  So each workload gives its chunk
the parts its operations spend their time in, in about the same shares
(the ``chunk`` of each workload in workloads.py).

Each part takes about ``REF_PART_S`` on the reference machine, the 2-vCPU
machine the benchmark was tuned on at its fastest.  A time t measured while
a chunk of n parts takes c seconds is reported as ``t * n * REF_PART_S / c``:
the time the work would take at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# CPU seconds of one part on the reference machine
REF_PART_S = 0.004

_SCALAR_STEPS = 40000
_SMALL_STEPS = 2400
_BLOCK_STEPS = 14
_GRID = 48


class Calibrator:
    """Runs chunks of the given parts and keeps their CPU times."""

    def __init__(self, parts):
        self.parts = [getattr(self, "_" + name) for name in parts]
        self.ref_s = REF_PART_S * len(self.parts)
        self.small = np.linspace(0.1, 1.0, 129)
        self.block = np.linspace(1.0, 2.0, 16384)
        n = _GRID
        lap = sp.diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        self.rhs = np.linspace(1.0, 2.0, n * n)
        self.times = []
        self.chunk()  # first call pays for lazy imports and allocation
        self.times.clear()

    def chunk(self):
        """Run one chunk; returns and records its CPU seconds."""
        t0 = time.process_time()
        total = sum(part() for part in self.parts)
        c = time.process_time() - t0
        if not np.isfinite(total):
            raise ArithmeticError("calibration chunk gave a non-finite result")
        self.times.append(c)
        return c

    def scale(self, chunk_s):
        """Factor from CPU seconds at a chunk time of chunk_s to the reference."""
        return self.ref_s / chunk_s

    def _scalar(self):
        acc = 0.0
        for k in range(_SCALAR_STEPS):
            acc += (k * 0.5 + 1.0) ** 0.5 / (1.0 + k)
        return acc

    def _small(self):
        a = self.small
        for _ in range(_SMALL_STEPS):
            a = np.sqrt(a * a + 1e-3) * 0.999
        return float(a[0])

    def _block(self):
        # log-normal steps and barrier tests, as in the Monte Carlo loop
        rng = np.random.default_rng(0)
        x = s = self.block
        hits = 0
        for _ in range(_BLOCK_STEPS):
            z = rng.standard_normal(x.size)
            u = rng.random(x.size)
            x = x * np.exp(-1e-4 + 0.01 * z)
            s = np.maximum(s, x)
            gap = np.log(s) - np.log(x)
            hits += np.count_nonzero((u < np.exp(-2.0 * gap * gap / 1e-4)) & (gap > 0.0))
        return float(x[0]) + hits

    def _lu(self):
        return float(spla.spsolve(self.matrix, self.rhs)[0])
