"""A fixed reference computation that tracks the host's current speed.

On a shared host the speed given to this process flips between a fast
and a slow state, often several times a second, and the share of time
spent slow drifts over minutes, so the same round of work takes up to
1.6 times longer from one minute to the next.  A sample runs a fixed
computation for about half a second and gives its mean time per unit,
which measures that share.  A round's seconds are scaled by the
samples taken just before and just after it:

    scaled = raw * REFERENCE_S / mean(sample before, sample after)

The computation uses numpy and scipy only, never phasectl, so a change
to the program cannot change it.  It mixes the two kinds of work the
workloads do: an interpreter loop with small numpy operations (the 1D
layers) and a sparse LU solve on a 64x64 grid (the 2D layer).
"""

import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Seconds per unit on the 2-vCPU Xeon the bounds were set on; samples
# there read about 0.021 s in the fast state and 0.030 s in the slow one.
REFERENCE_S = 0.025
UNITS_PER_SAMPLE = 25


class Calibration:
    def __init__(self, cells=64):
        main = np.full(cells, -2.0)
        main[0] = main[-1] = -1.0
        off = np.ones(cells - 1)
        lap = scipy.sparse.diags([off, main, off], [-1, 0, 1]) * cells ** 2
        eye = scipy.sparse.identity(cells)
        rng = np.random.default_rng(0)
        self.shift = rng.uniform(60.0, 70.0, cells * cells)
        self.lap = (scipy.sparse.kron(lap, eye)
                    + scipy.sparse.kron(eye, lap)).tocsr()
        self.rhs = rng.uniform(0.0, 1.0, cells * cells)

    def _unit(self):
        total = 0
        for i in range(20000):
            total += i * i
        a = np.arange(64.0)
        for _ in range(1000):
            a = 0.5 * (a + np.dot(a, a) / (1.0 + a @ a))
        matrix = scipy.sparse.diags(self.shift) - self.lap
        scipy.sparse.linalg.spsolve(matrix.tocsc(), self.rhs)

    def sample(self):
        """Mean seconds per unit over UNITS_PER_SAMPLE units."""
        tic = time.perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            self._unit()
        return (time.perf_counter() - tic) / UNITS_PER_SAMPLE


def scale(seconds, before, after):
    """Seconds measured between two samples, scaled to REFERENCE_S."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
