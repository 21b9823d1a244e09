"""Host-speed reference kernel.

Host speed on small shared machines drifts by 20-50 % in phases that last
from seconds to minutes, and process CPU time drifts with it. A fixed kernel
timed right before each measured operation tracks that drift. Each
operation's time is scaled by ``NOMINAL_S / kernel time``, which reports it
as it would take on a host where the kernel takes ``NOMINAL_S``.

The kernel is a miniature of the simulator's inner loop (a windowed
convolution, a leaky neuron update, threshold and reductions, and dense
mat-vecs), written here with numpy alone. It shares no code with the
program, so a change to the program moves the measured operations and not
the kernel.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["NOMINAL_S", "Reference"]

#: kernel time of the nominal host (about this kernel's median on a 2-core
#: Xeon VM with numpy 2.4 and OpenBLAS 0.3.31)
NOMINAL_S = 1.5e-3


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._images = rng.random((12, 1, 28, 28)) < 0.3
        self._conv = rng.normal(0.15, 0.1, (8, 1, 3, 3))
        self._dense = rng.normal(0.0, 0.01, (10, 5408))
        self._hidden = rng.normal(0.0, 0.01, (128, 784))
        self._scale: float | None = None

    def time(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = perf_counter()
        i = np.zeros(5408)
        v = np.zeros(5408)
        for x in self._images:
            view = sliding_window_view(x.astype(np.float64), (3, 3), axis=(1, 2))
            drive = np.tensordot(self._conv, view, axes=([1, 2, 3], [0, 3, 4])).reshape(-1)
            i = i - i * 0.2 + drive
            v_half = v + (i - v) * 0.1
            spikes = v_half >= 1.0
            v = v_half - spikes
            if not (np.isfinite(i).all() and np.isfinite(v).all()):
                raise FloatingPointError("reference kernel left the finite range")
            out = self._dense @ spikes.astype(np.float64)
            hidden = self._hidden @ x.reshape(-1).astype(np.float64)
            int(spikes.sum() + np.count_nonzero(out > 0) + np.count_nonzero(hidden > 0))
        return perf_counter() - start

    def measure(self, op: Callable[..., float], *args) -> tuple[float, float]:
        """Run ``op`` (which returns its host seconds) between two kernel passes.

        Returns (nominal, host) seconds, scaled by the mean of the kernel's
        speed before and after. The pass after one operation serves as the
        pass before the next.
        """
        before = self._scale if self._scale is not None else NOMINAL_S / self.time()
        host = op(*args)
        self._scale = NOMINAL_S / self.time()
        return host * (before + self._scale) / 2, host
