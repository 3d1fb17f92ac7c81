"""References that track the speed of the machine.

On a shared VM the same command can take twice as long a minute later:
the CPU's speed drifts with what runs beside it.  The benchmark therefore
times a fixed reference next to every measurement and scales the
measured time by ``reference time at full speed / reference time now``.
Neither reference shares code with galmag, so a change to galmag moves the
scaled times exactly as much as the raw ones.

* Commands: a pure-Python kernel with galmag's instruction mix (tuple
  arithmetic of an ODE right-hand side, small object allocation, libm
  calls and ``.17g`` formatting), timed after every command.
* Set-up: importing numpy, galmag's only dependency, in a fresh
  interpreter, run beside every timed import of ``galmag.cli``.  Import
  speed drifts apart from the kernel's (loading extension modules, not
  running bytecode), and a set of standard-library imports tracked it
  less closely than numpy.  A change to galmag's own imports, or making
  numpy's import lazy, still shows in full.
"""

import math
import time

# Kernel time and reference-import time on the reference machine when it
# ran at its fastest.
KERNEL_REF_S = 0.5e-3
IMPORT_REF_S = 0.065
REFERENCE_IMPORT = "numpy"
_REPEATS = 3


class _Vec:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c

    def __sub__(self, other):
        return _Vec(self.a - other.a, self.b - other.b, self.c - other.c)


def _rhs(state, w):
    _y, _z, yd, zd = state
    return (yd, zd, 0.5 - w * zd, w * yd - 0.25)


def _kernel(n=250):
    state = (0.1, 0.2, 0.3, 0.4)
    origin = _Vec(0.1, 0.2, 0.3)
    acc = 0.0
    out = []
    for i in range(n):
        k = _rhs(state, 0.7)
        state = tuple(x + 1e-3 * d for x, d in zip(state, k))
        v = _Vec(math.cos(i * 1e-3), math.sin(i * 1e-3), state[0]) - origin
        acc += math.hypot(v.b, v.c)
        if i % 8 == 0:
            out.append(format(acc, ".17g"))
    return ",".join(out)


def kernel_seconds() -> float:
    """Fastest of a few timed kernel runs (interrupts only add time)."""
    best = math.inf
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
