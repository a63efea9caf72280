"""Host-speed probe: how fast is this machine *right now*?

The sandbox this benchmark was built on shares its cores. A fixed
pure-Python loop takes 0.44, 0.54, 0.62 or 0.80 ms depending on the
moment — discrete levels, up to 2x apart, held for one to thirty
seconds, with process CPU time inflating exactly like wall time (it is
the core that slows down, not the process that waits). Whole ten-second
runs land on different levels: raw op latencies of one commit spread
10-35% between runs (IQR over median, ten runs), which no bound of at
most 25% survives and no choice of median, quartile or minimum over
rounds repairs (all were tried on recorded samples).

What does repair it is measuring the level. ``burst`` runs between
every two ops, in the client thread, while the closed loop has nothing
in flight, and an op's latency is scaled by ``REF_MS / (mean of the
readings before and after it)``: it becomes the latency the op would
have had on a host at the reference speed. Over ten runs of each
workload the scaled timings spread 0.02-0.08 where the same runs' raw
timings spread 0.06-0.32, and the medians of two batches of ten agree
within 4% where the raw ones drift by up to 14% (README, "Noise on this
host"). ``setup_s`` is not scaled: a third of it is importing, which
the probe does not resemble, and scaling made it noisier.

What this cannot see: work the *program* does on other Python threads
while the client is between ops contends for the interpreter lock,
slows the probe, and would be scaled away. The untraced run has no such
threads (speculation and specialization are off, as by default); the
result file keeps the raw samples and probe readings, every timing row
prints the value as the clock read it, and ``host_speed`` — the run's
median reading over ``REF_MS`` — is printed beside the metrics, so a run
on a disturbed host, or a change that adds background work, shows.
"""

from __future__ import annotations

import time
from typing import List, Sequence

#: What one ``probe()`` takes, in ms, on the reference host: the middle
#: of the levels seen on the sandbox, so scaled and raw latencies agree
#: there on average.
REF_MS = 0.60


def probe() -> float:
    """Time (ms) of a fixed interpreter-bound loop: dict stores and
    loads, tuple allocation, integer arithmetic — the mix the compiler
    and the simulator are made of."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(4000):
        table[i & 255] = (i, total)
        total += len(table) + (i * i) % 7
    return (time.perf_counter() - start) * 1e3


def burst(op_ms: float) -> float:
    """The host's probe time (ms) right now, as the median of a burst
    whose length grows with the op just timed: one probe per 25 ms of
    op, at least one, at most nine.

    A single 0.6 ms probe reads the host's level with about 10% error.
    A round of hundreds of millisecond ops averages that out; a round of
    twenty 200 ms ops does not, and its scaled p90 came out noisier than
    the raw one until the bursts grew with the op (a burst still costs
    under 3% of the op it follows)."""
    count = min(max(int(op_ms // 25.0), 1), 9)
    samples = sorted(probe() for _ in range(count))
    return samples[count // 2]


def slowness(probes: Sequence[float]) -> List[float]:
    """Host slowness factor for each op of a round, given the
    ``len(ops) + 1`` probe readings (``burst``) taken before, between
    and after its ops: the mean of the reading just before the op and
    the one just after it, over ``REF_MS``. 1.0 is the reference host, 1.3 a host 1.3x slower.
    (Wider windows were tried on recorded runs: they change little for
    millisecond ops and are worse for 200 ms ones, during which the
    level can change.)"""
    return [
        (before + after) / (2.0 * REF_MS)
        for before, after in zip(probes, probes[1:])
    ]
