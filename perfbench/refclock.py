"""Reference time: wall time rescaled by the machine's measured speed.

The machines this benchmark runs on are shared, and their speed drifts by up
to 2x over tens of seconds (measured on a 2-vCPU VM: a fixed pure-Python loop
took 19 ms to 48 ms from one moment to the next, on both vCPUs at once), and
it also changes within a single operation.  A wall-clock median then says
more about the neighbours than about the program.

So while a run measures, a SIGALRM handler runs ``reference_loop`` (fixed
pure-Python work of the kind the program does: dict updates keyed by string
slices and tuples, integer arithmetic) every PERIOD_S and records its speed
factor, REF_S / loop time.  A measured wall interval is reported in
*reference time*: its length, less the time the handler itself ran inside
it, times the mean factor of the samples taken within WINDOW_S of it (the
extremes trimmed, a tenth from each end and at least one, to drop samples
that an interrupt hit).  It is a mean and not a median because an interval's
time is the sum of its moments, whatever the mix of fast and slow ones.
That is the time the interval would have taken on a machine where one
reference loop takes exactly REF_S.  A change to the program moves the
interval and not the loop, so reference times compare across commits.

Sampling is dense (every 5 ms) and the window narrow (10 ms), so that an
operation of a few milliseconds is scaled by the speed of its own moment
rather than by the mean speed of the half second around it; perfbench/README.md
gives the spreads that decided this.
"""

import bisect
import gc
import signal
import statistics
import time

REF_S = 0.0002          # reference seconds per reference loop, by definition
PERIOD_S = 0.005        # one speed sample per PERIOD_S of wall time
WINDOW_S = 0.01         # samples this close to an interval set its factor
REF_STRING = "0100101001010010"


def reference_loop(n=250):
    table = {}
    acc = 0
    for i in range(n):
        word = REF_STRING[i % 7: i % 7 + 5]
        key = (word, i & 63)
        table[key] = table.get(key, 0) + 1
        acc += len(word) * (i % 3)
        if (word, acc) in table:
            acc -= 1
    return acc


class RefClock:
    def __init__(self):
        self.starts = []        # when each speed sample began, ascending
        self.times = []         # when each speed sample ended, ascending
        self.spent = [0.0]      # wall time spent sampling before each sample
        self.factors = []       # REF_S / loop time of each sample
        self.running = False

    def _sample(self, signum, frame):
        # The loop's allocations must not trigger a collection of the
        # program's heap: that would time the program's garbage, not the machine.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(t1)
        self.spent.append(self.spent[-1] + (t1 - t0))
        self.factors.append(REF_S / (t1 - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self):
        """Stop sampling, after covering the window past the last interval."""
        if self.running:
            time.sleep(WINDOW_S)
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def seconds(self, interval):
        """Reference seconds of a wall interval (start, end) of perf_counter:
        the handler's own time inside it is taken out before scaling."""
        start, end = interval
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        factors = sorted(self.factors[lo:hi])
        if not factors:
            raise RuntimeError("no speed sample near [%r, %r]" % (start, end))
        if len(factors) >= 3:
            cut = max(1, len(factors) // 10)
            factors = factors[cut:len(factors) - cut]
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.times, end)
        own = self.spent[last] - self.spent[first] if last > first else 0.0
        return (end - start - own) * sum(factors) / len(factors)

    def summary(self):
        """Sample count and quartiles of the speed factor over the run."""
        q = statistics.quantiles(self.factors, n=4) if len(self.factors) > 1 else []
        return {"samples": len(self.factors), "factor_quartiles": q}
