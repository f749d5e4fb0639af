"""Fixed calibration work that measures how fast the host runs right now.

The reference machine is a few shared cores whose speed drifts by 10-25 %
within minutes (frequency, and neighbours on the same physical cores), so
the same hypograd run can take 5.9 or 8.4 s of CPU time a minute apart.
Each repetition therefore times this fixed work just before and just after
its ``hypograd.cli.run`` call, and run.py scales the repetition's CPU times
by ``REFERENCE_S / calibration`` ("reference seconds").  The work mixes the
kinds the workloads spend their time on: interpreted Python, numpy
elementwise passes over path-sized arrays, small batched SVDs and einsums,
and streaming over an array larger than the cache (``skorokhod_mass``
touches about 640 MB per run, and its speed follows memory bandwidth more
than anything else measured here).  It uses numpy only, never hypograd, so
a change to hypograd cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# About the CPU seconds of one calibrate() pass on the reference machine
# (its median over 20 passes was 0.48 s).  A fixed constant: it only makes
# the reported times read as seconds of that machine.
REFERENCE_S = 0.50

_rng = np.random.default_rng(0)
_PATHS = _rng.standard_normal((2, 65536))
_MATS = _rng.standard_normal((4096, 3, 2))
_TENSORS = _rng.standard_normal((512, 8, 2, 2, 2))


def _python():
    s = 0.0
    for i in range(1_500_000):
        s += (i % 7) * 0.5
    return s


def _elementwise():
    x = _PATHS.copy()
    for _ in range(40):
        x = np.clip(x + 0.01 * (np.sin(x) - 0.5 * x * x * x) + 0.1, -5.0, 5.0)
    return float(x.sum())


def _small_linalg():
    acc = 0.0
    for _ in range(10):
        u, s, vt = np.linalg.svd(_MATS, full_matrices=False)
        acc += float(np.einsum("pab,pb,pcb->pac", u, 1.0 / s, vt).sum())
        acc += float(np.einsum("pjabe,pjec->pjabc", _TENSORS,
                               _TENSORS[..., 0, :, :]).sum())
    return acc


def _streaming():
    # allocated here, not at import, so that it never adds to the peak RSS
    # of the hypograd run that it brackets
    big = np.ones(4_000_000)
    for _ in range(36):
        np.multiply(big, 1.0000001, out=big)
    return float(big.sum())


def calibrate():
    """CPU seconds this process takes for the fixed calibration work."""
    c0 = time.process_time()
    _python()
    _elementwise()
    _small_linalg()
    _streaming()
    return time.process_time() - c0
