"""Host-speed probe.  The shared host this benchmark runs on changes speed
by up to 2x within seconds, so a raw pass time says as much about the
neighbours as about the library.  While a section of a pass runs, a fixed
chunk of pure-Python work is timed every ``PERIOD_S`` seconds (from a
``SIGALRM`` handler, so the samples fall inside the section), and the
section's time is scaled by ``REFERENCE_CHUNK_S`` / mean chunk time: the
seconds the section would have taken on a host where the chunk takes
``REFERENCE_CHUNK_S``.  The probe's own time is taken out first.

The chunk does not touch the library, so a change to the library moves the
scaled time in proportion to the raw one.
"""

import gc
import signal
import time

PERIOD_S = 0.025
CHUNK_STEPS = 1000
# Mean chunk time inside a pass on the machine the benchmark was written on,
# in its fast state; any constant would do, this one keeps scaled times near
# the fast raw ones.
REFERENCE_CHUNK_S = 4.0e-4


def _step(i, table):
    key = (i % 97, i % 13)
    table[key] = table.get(key, 0) + i * i // (i % 29 + 1)
    return key


def chunk():
    """Interpreter work of the library's kind: calls, tuples, dicts, ints."""
    table = {}
    keys = [_step(i, table) for i in range(1, CHUNK_STEPS)]
    return len(table), sorted(keys[-8:])


class Probe:
    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds inside the handler, probe overhead included

    def _tick(self, signum=None, frame=None):
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the library's heap must not slow the chunk
        t = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - t)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - entered

    def start(self):
        for _ in range(50):  # warm the chunk's code before any sample counts
            chunk()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark):
        """(scaled seconds, raw seconds, slowdown) of the section since ``mark``."""
        end = time.perf_counter()
        first, spent, start = mark
        raw = end - start - (self.spent - spent)
        if len(self.samples) == first:  # a section shorter than one period
            self._tick()
        slowdown = sum(self.samples[first:]) / (len(self.samples) - first) / REFERENCE_CHUNK_S
        return raw / slowdown, raw, slowdown
