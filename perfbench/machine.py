"""A fixed reference computation that measures the machine's current speed.

On a shared VM the same operation can run up to 1.7 times slower for tens of
seconds at a time, with CPU time rising as much as wall time. Such a slowdown
belongs to the machine, not to the program. The harness runs ``reference``
before the first operation and after each one (and likewise around each
set-up), and reports bounded times at reference speed: the speed at which
``reference`` takes ``reference_s``. An operation's normalized time is its
wall time multiplied by ``reference_s`` and divided by the mean of the two
reference times around it.

The reference is the benchmark's own code and calls nothing in ``mpsqvm``,
so a change to the program cannot move it. It is a loop of small numpy calls
from Python, like the program's single-qubit gates and sampling, preceded for
LAPACK-bound workloads by ``svds`` SVDs of a 128x128 complex matrix, like the
two-site update. Candidates were compared by how little the median operation
time divided by them moved over 25-second windows. The calls loop alone was
best on the call-bound ``vqe_sampled`` (3 % at most, against 65 % for the raw
time); on ``grid`` it left 8-17 %, and two SVDs in front of it cut that to
3-10 % (raw: 25-45 %). A plain Python loop, dict and list lookups over a few
MB, memory-bound array sums and tensor contractions did no better.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import svd  # bound here, so a traced run's wrapper is never met

#: Seconds the calls loop and one SVD take at reference speed, about their
#: times on the 2-vCPU x86-64 VM the benchmark was written on.
CALLS_S = 0.02
SVD_S = 0.008

_GATE = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def reference(svds: int) -> float:
    """Run the reference computation with ``svds`` SVDs; return its wall seconds."""
    start = time.perf_counter()
    for _ in range(svds):
        svd(_MATRIX, full_matrices=False)
    vec = np.array([1.0, 0.0], dtype=complex)
    acc = 0.0
    for _ in range(6000):
        vec = _GATE @ vec
        acc += np.vdot(vec, vec).real
    return time.perf_counter() - start


def reference_s(svds: int) -> float:
    """Seconds ``reference(svds)`` takes at reference speed."""
    return CALLS_S + svds * SVD_S


def normalized(seconds: list[float], refs: list[float], svds: int) -> list[float]:
    """``seconds[i]`` at reference speed; ``refs`` has one more entry, the
    reference times before the first and after each timed interval."""
    nominal = 2 * reference_s(svds)
    return [t * nominal / (refs[i] + refs[i + 1]) for i, t in enumerate(seconds)]
