"""Timings scaled to a reference speed of the machine.

The machine the benchmark was sized on drifts in speed by up to 1.5x over
tens of seconds (see README.md, "Steadiness").  A raw time therefore says as
much about when it was taken as about the program.  So the benchmark times a
fixed pure-Python kernel, which depends on nothing in ``hypertope``, between
blocks of measured work, and scales each raw time in a block by

    REF_NOMINAL_S / mean(kernel time just before the block, just after it)

A scaled time reads as the seconds the work would take on a machine that
runs the kernel in ``REF_NOMINAL_S``.  It moves with the program's own speed
and much less with the machine's drift.
"""

from __future__ import annotations

import time

# a round figure near the kernel's median time on the 2-core VM the benchmark
# was sized on; it fixes the unit of every scaled time
REF_NOMINAL_S = 0.010
_N = 48
_A = tuple((5 * i + 3) % _N for i in range(_N))
_B = tuple((7 * i + 1) % _N for i in range(_N))


def kernel() -> int:
    """Fixed interpreter work, half integer arithmetic and half composing
    permutation tuples into a dict, like the library's own kernel."""
    s = 0
    for i in range(60_000):
        s += i * i % 7
    seen: dict[tuple, int] = {}
    x = _A
    for i in range(800):
        x = tuple([(_A if i & 1 else _B)[j] for j in x])
        seen[x] = seen.get(x, 0) + 1
    return s + len(seen)


def reference_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class RefTimer:
    """Collects raw timings and scales them block by block.

    ``add`` queues one raw time under a (kind, name) key.  ``close`` runs
    the kernel and scales the open block; ``tick`` does so only once the
    block has lasted ``block_s``.  Scaled samples are in ``samples`` as
    (kind, name, seconds).  The kernel's own time is never part of a
    measured time.
    """

    def __init__(self, block_s: float = 0.15):
        self.block_s = block_s
        self.samples: list[tuple[str, str, float]] = []
        self.kernel_s: list[float] = []
        self._pending: list[tuple[str, str, float]] = []
        self._last = reference_s()
        self._opened = time.perf_counter()

    def add(self, kind: str, name: str, raw_s: float) -> None:
        self._pending.append((kind, name, raw_s))

    def tick(self) -> None:
        if time.perf_counter() - self._opened >= self.block_s:
            self.close()

    def close(self) -> None:
        """Run the kernel and scale every queued time by the two around it."""
        ref = reference_s()
        self.kernel_s.append(ref)
        scale = REF_NOMINAL_S / ((self._last + ref) / 2)
        self.samples += [(kind, name, t * scale) for kind, name, t in self._pending]
        self._pending.clear()
        self._last = ref
        self._opened = time.perf_counter()

    def total(self, *kinds: str) -> float:
        return sum(t for kind, _, t in self.samples if kind in kinds)

    def by_name(self, kind: str) -> dict[str, float]:
        return {name: t for k, name, t in self.samples if k == kind}
