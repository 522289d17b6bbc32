"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The host's speed drifts by up to 50% over minutes, and every timing of the
program drifts with it. The harness times this kernel next to the calls it
measures and scales their times to a fixed host speed:

    scaled = measured * REFERENCE_S / (kernel time measured next to it)

The kernel uses only the standard library and never the package, so a
change to the program cannot change it. It mixes what the workloads spend
their time on: exact integer elimination on multi-hundred-bit numbers, a
sparse product with Fraction coefficients, and parsing of JSON text.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

# the kernel's time on a 2-core x86-64 machine with Python 3.11 at
# its usual speed; scaled timings read as seconds on that machine
REFERENCE_S = 0.008

_rng = random.Random(20220829)
_MATRIX = [[_rng.getrandbits(320) for _ in range(12)] for _ in range(12)]
_FACTORS = [
    {(_rng.randrange(7), _rng.randrange(7)): Fraction(_rng.randrange(-40, 41) or 1,
                                                      _rng.randrange(1, 40))
     for _ in range(40)}
    for _ in range(2)
]
_DOCUMENT = json.dumps({
    "edges": [{"u": f"v{i}", "v": f"v{i + 1}", "label": f"{_rng.getrandbits(64)}*x + y"}
              for i in range(300)]
})


def _determinant() -> int:
    """Bareiss elimination with exact integer division."""
    m = [row[:] for row in _MATRIX]
    n, previous = len(m), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return m[-1][-1]


def _product() -> int:
    left, right = _FACTORS
    out = {}
    for (a, b), c in left.items():
        for (d, e), f in right.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return len(out)


def kernel() -> None:
    _determinant()
    _product()
    json.loads(_DOCUMENT)


def gauge(repeats: int = 3) -> float:
    """The kernel's fastest time over ``repeats`` back-to-back runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
