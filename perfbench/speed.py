"""The speed of the machine while a command runs, for timings that do not
move with it.

A shared machine can run the same Python code up to 1.7 times slower for
seconds or minutes at a time, because of other tenants, and a run is too
short to wait for a fast period.  So while a timed command runs, a SIGALRM
handler runs one of four fixed pure-Python routines every INTERVAL_S, in
turn, and times it.  The command's time, less the handler's, is divided by
the speed factor: the geometric mean over the routines of their median
time over their time in REF_S.  The result is the time the command would
have taken at the speed where the routines take REF_S.

The routines are not cdc5 code, so a change to the program does not move
the yardstick.  They mix what cdc5 spends its time on: dict updates and
integer bit operations, breadth-first search over adjacency lists,
sorting integers by a computed key, and sorting small objects by a key
built from their methods and a generator.  Over 30 sweeps of a Blanusa
snark, sweep times varied by 0.12-0.15 (coefficient of variation) and
sweep times over the routines' speed factor by 0.05.  A fifth routine,
reads at random places of an 8 MB buffer, tracked the sweeps so poorly
(0.13-0.15) that it was left out.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time

INTERVAL_S = 0.05


class Bits:
    """A set of small integers held as a bit mask, used like cdc5's edge
    sets by one of the routines."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def __iter__(self):
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __and__(self, other: "Bits") -> "Bits":
        return Bits(self.mask & other.mask)


class Routines:
    """The four routines and their inputs, made from a fixed seed."""

    def __init__(self):
        rng = random.Random(0)
        self.words = [rng.getrandbits(40) for _ in range(500)]
        n = 60
        self.adj = [[(v + 1) % n, (v - 1) % n, (v + n // 2) % n] for v in range(n)]
        self.masks = [rng.getrandbits(42) for _ in range(80)]
        self.sets = [Bits(rng.getrandbits(42)) for _ in range(60)]
        self.all = (self.words_mix, self.bfs, self.sort_by_key, self.sort_objects)

    def words_mix(self) -> int:
        counts: dict[int, int] = {}
        for x in self.words:
            counts[x & 63] = counts.get(x & 63, 0) + x.bit_count()
        return sorted(self.words, key=lambda x: (x.bit_count(), x))[0] + len(counts)

    def bfs(self) -> int:
        reached = 0
        for root in range(0, len(self.adj), 3):
            dist = {root: 0}
            queue = [root]
            for v in queue:
                for w in self.adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            reached += len(dist)
        return reached

    def sort_by_key(self) -> int:
        first = self.masks[0]

        def ids(mask: int) -> tuple:
            out = []
            while mask:
                low = mask & -mask
                out.append(low.bit_length() - 1)
                mask ^= low
            return tuple(out)

        return len(sorted(self.masks, key=lambda m: ((first & m).bit_count(), ids(m))))

    def sort_objects(self) -> int:
        first = self.sets[0]
        return len(sorted(self.sets, key=lambda s: (len(first & s), tuple(s))))


# Median time of each routine during 30 s of find-j7 commands on the
# machine the benchmark was written on (2 shared vCPUs, Python 3.11): the
# unit of scaled times.
REF_S = (0.00045, 0.00046, 0.00051, 0.00044)


class Probe:
    """Samples the routines during `with probe:` blocks.  Every routine is
    also sampled just before and after each block, so a block shorter than
    INTERVAL_S still has samples."""

    def __init__(self):
        self.routines = Routines()
        self.samples: list[list[float]] = []
        self.spent = 0.0
        self.turn = 0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self, i: int) -> None:
        enabled = gc.isenabled()
        gc.disable()  # collections belong to the program, not the routine
        start = time.perf_counter()
        self.routines.all[i]()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples[i].append(took)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample(self.turn)
        self.turn = (self.turn + 1) % len(REF_S)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples = [[] for _ in REF_S]
        self.spent = 0.0
        for i in range(len(REF_S)):
            self._sample(i)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for i in range(len(REF_S)):
            self._sample(i)

    def factor(self) -> float:
        """How much slower than the reference speed the last block ran."""
        ratios = [statistics.median(s) / ref for s, ref in zip(self.samples, REF_S)]
        return math.prod(ratios) ** (1.0 / len(ratios))

    def scaled(self, seconds: float) -> float:
        """`seconds` measured over the last block, less the handler's
        time, at the reference speed."""
        return (seconds - self.spent) / self.factor()
