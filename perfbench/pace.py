"""The host's pace, sampled while a timed step runs.

The benchmark's host is a VM on a shared machine, and its CPU speed moves by
tens of percent in spells that last from seconds to hours: a cold
random-k2 pass took 17 s and, a few minutes later, 10 s, with CPU time
equal to wall time.  Raw wall times would then follow the host, not the
program.  So every timed step also times a fixed piece of pure-Python work
(Fraction sums, modular squaring of a big integer, building a dict of
tuples, and unmarshalling a module's code, as an import does) ten times when
it starts, every INTERVAL_S while it runs, from a SIGALRM handler, and ten
times when it ends.  A step's time is reported as

    (wall seconds - seconds spent in the pieces) * REFERENCE_PIECE_S / mean piece seconds

that is, in seconds at a fixed reference pace.  The ticks are evenly spread
in wall time, so the mean weighs every moment of the step alike, slow spells
included.  Each tick runs the piece once untimed before the timed one, so
the timed piece finds its code and data in the caches whatever the step was
doing.  The piece is the benchmark's own code, so a change to the program
moves the step time and not the pace.  The pieces run with the garbage
collector off, so the size of the program's heap does not slow them, and
they leave no cyclic garbage behind.  README.md ("Noise") gives how far the
scaled times spread against the raw ones.
"""

from __future__ import annotations

import fractions
import functools
import gc
import marshal
import signal
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

INTERVAL_S = 0.05  # about 5% of a step's wall time goes to the pieces
EDGE_PIECES = 10  # pieces at the start and at the end of a step
# A round figure near the piece's mean on the reference machine (0.9-1.2 ms
# during a pass); it sets only the scale of the reported seconds.
REFERENCE_PIECE_S = 0.001

_MODULUS = (1 << 89) - 1


@functools.cache
def _module_code() -> bytes:
    source = Path(fractions.__file__).read_text()
    return marshal.dumps(compile(source, fractions.__file__, "exec"))


def piece() -> int:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)
    x = 3
    for _ in range(1000):
        x = (x * x + 12345678910111213) % _MODULUS
    table = {}
    for i in range(400):
        table[(i, str(i))] = [i, x]
    code = marshal.loads(_module_code())
    return len(table) + len(code.co_consts) + total.denominator % 7


class Pace:
    """Sample the piece at entry, every INTERVAL_S inside the block, and at
    exit.  `spent` is the wall time the sampling took, to be subtracted from
    the step's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            piece()  # untimed, to warm the caches
            timed = perf_counter()
            piece()
            self.samples.append(perf_counter() - timed)
        finally:
            if enabled:
                gc.enable()
        self.spent += perf_counter() - start

    def __enter__(self) -> "Pace":
        for _ in range(EDGE_PIECES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PIECES):
            self._sample()

    def report(self) -> dict:
        return {"pace_samples": self.samples, "pace_spent": self.spent}


def at_reference_pace(raw_s: float, report: dict) -> float:
    """Seconds at the reference pace, from raw seconds (pieces excluded) and
    the pace report of the same step."""
    return raw_s * REFERENCE_PIECE_S / statistics.fmean(report["pace_samples"])
