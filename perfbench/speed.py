"""Host speed sampling, so that times can be given at a fixed speed.

The benchmark runs on shared hosts whose CPU speed changes by up to
about 1.8x, in phases that last from a fraction of a second to minutes.
Raw wall times of the same code then spread wider than any useful
regression bound, and no amount of repetition inside one run removes a
slow minute.  So while set-up or a pass runs, a ``SIGALRM`` interval
timer interrupts it and times a fixed pure-Python reference loop
(``ref_loop``).  The handler runs in the main thread between bytecodes,
so the loop sees the speed the measured code sees at that moment.

:func:`at_ref_speed` turns a measured time into seconds at the reference
speed, the speed at which ``ref_loop`` takes ``REF_LOOP_S``: the time,
less the time the loops took, times the mean of ``REF_LOOP_S / loop
time`` over the samples.  Each sample stands for an equal slice of the
interval, and the work done in a slice is its length times the speed,
so the mean of the inverse loop times is the right average.
"""

from __future__ import annotations

import signal
import time

_clock = time.perf_counter

# The reference speed: the speed at which ref_loop() takes this long.
REF_LOOP_S = 0.0005


def ref_loop():
    """Integer, list, dict and call work of the kind t2forms does."""
    acc, table, rows = 0, {}, list(range(64))
    for i in range(1200):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 127] = rows[i & 63] + acc
        acc = _rot(acc)
    return acc


def _rot(x):
    return ((x << 1) | (x >> 15)) & 0xFFFF


def at_ref_speed(seconds, loops):
    """``seconds`` measured while ``loops`` were sampled, less the loops'
    own time, scaled to the reference speed."""
    own = seconds - sum(loops)
    return own * sum(REF_LOOP_S / d for d in loops) / len(loops)


class Sampler:
    """Times ``ref_loop`` when started and then every ``interval``
    seconds until stopped.  Start and stop it inside the measured
    interval, so that every loop's time is part of it."""

    def __init__(self, interval):
        self.interval = interval
        self.loops = []

    def _tick(self, signum=None, frame=None):
        start = _clock()
        ref_loop()
        self.loops.append(_clock() - start)

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
