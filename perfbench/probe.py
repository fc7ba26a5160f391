"""Host-speed probe: a fixed computation timed next to every pass.

On a shared host (2 vCPUs) the speed of one core drifts: a fixed Python
loop takes up to 1.7 times longer for tens of seconds at a time, which
moves the median pass of a whole run by 20-30% between runs of the same
code.  The probe measures that drift where it happens.  It owns all of
its code, so no change to xyzring can make it faster or slower: a pass
that needs half the time reads half as many probe-times, whatever the
host is doing.

The probe is made of the kinds of work the workloads spend their time on:
an interpreter loop (argument parsing, CSV formatting, per-call overhead),
batched 2x2 complex products (trace amplitudes), a small dense Hermitian
eigensolve (ED, through the pinned BLAS threads) and Kronecker products
(dense assembly), each about 10 ms.  A workload names the parts it uses
(`probe_parts`): kinds of work do not all slow down together, and a part
that drifts apart from the workload adds noise instead of removing it.
Each part counts with the median of three repeats, so that one preemption
does not count.  It allocates under 4 MiB at a time.
"""

import time

import numpy as np

REPEATS = 3

_rng = np.random.default_rng(0)
_BATCH = _rng.standard_normal((12288, 2, 2)) + 1j * _rng.standard_normal((12288, 2, 2))
_SITE = _BATCH[0].copy()
_HERM = _rng.standard_normal((192, 192)) + 1j * _rng.standard_normal((192, 192))
_HERM = _HERM + _HERM.conj().T
_FACTOR = _rng.standard_normal((16, 16)) + 0j


def _interpreter():
    total = 0
    for i in range(200_000):
        total += i
    return total


def _batched():
    return np.stack([_BATCH @ _SITE, _BATCH @ _SITE.T], axis=1).reshape(-1, 2, 2)


def _eigensolve():
    return np.linalg.eigh(_HERM)


def _kron():
    for _ in range(32):
        out = np.kron(_FACTOR, _FACTOR)
    return out


PARTS = {
    "interpreter": _interpreter,
    "batched": _batched,
    "eigensolve": _eigensolve,
    "kron": _kron,
}


def probe_s(parts):
    """Seconds the named parts of the probe take now: the sum of their
    median times."""
    total = 0.0
    for name in parts:
        part = PARTS[name]
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        total += sorted(times)[REPEATS // 2]
    return total

