"""A reference-speed probe, and op costs in reference seconds.

The benchmark runs on a shared host whose per-core speed drifts: the
same kind of op took under 6 s in one set of runs and 11-15 s in
another set hours later, and moved by 15% from op to op within minutes,
with nothing else running beside it and next to no steal time. Wall
seconds cannot carry a regression bound of a few percent there.

So a timed run pins itself and every process it starts to one core and
starts this probe on that core beside them. Every ``INTERVAL`` seconds
the probe runs one fixed chunk of work (no code of the program under
test) and logs the chunk's CPU seconds. A figure is then the CPU
seconds the op's processes spent, times ``REF_CHUNK_S`` over the median
chunk time the probe logged during the op: the op's cost in seconds of
a reference core on which a chunk takes ``REF_CHUNK_S``. A faster program lowers the figure; a slower host does
not raise it.

    python3 -m perfbench.probe LOG    # the probe process: appends to LOG
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import select
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: CPU seconds of one chunk on the reference core.
REF_CHUNK_S = 0.003
#: Seconds the probe sleeps between chunks.
INTERVAL = 0.04
#: Fewest chunk samples a figure is scaled by; short ops borrow the
#: samples nearest to them.
MIN_SAMPLES = 9
#: Fewest CPU seconds one sample of a short op times: such a sample is
#: the mean of as many back-to-back repeats as that takes.
MIN_SAMPLE_S = 0.05
#: Seconds the probe may take to log its first samples, or to stop.
START_TIMEOUT = 60.0

Sample = Tuple[float, float]


class Cost(NamedTuple):
    """CPU seconds an op's processes spent between two ``now()`` stamps."""

    start: float
    end: float
    cpu_s: float


def now() -> float:
    """The system-wide monotonic clock the probe stamps its samples with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_seconds(costs: Sequence[Cost], samples: Sequence[Sample]) -> List[float]:
    """Each cost in reference seconds, by the chunk times around it.

    ``samples`` are ``(stamp, chunk_cpu_s)`` in stamp order. A cost is
    scaled by the median of the samples stamped inside its window, widened
    toward the nearer neighbour until it holds ``MIN_SAMPLES``.
    """
    if len(samples) < MIN_SAMPLES:
        raise RuntimeError(f"the speed probe logged {len(samples)} samples")
    stamps = [stamp for stamp, _ in samples]
    scaled = []
    for cost in costs:
        lo, hi = bisect_left(stamps, cost.start), bisect_right(stamps, cost.end)
        while hi - lo < MIN_SAMPLES:
            if hi == len(stamps) or (
                lo > 0 and cost.start - stamps[lo - 1] <= stamps[hi] - cost.end
            ):
                lo -= 1
            else:
                hi += 1
        chunk = statistics.median(spent for _, spent in samples[lo:hi])
        scaled.append(cost.cpu_s * REF_CHUNK_S / chunk)
    return scaled


class Probe:
    """The probe process for the length of a ``with`` block."""

    def __init__(self, log: Path, env: Mapping[str, str], cwd: Path) -> None:
        self.log = log
        self.env = dict(env)
        self.cwd = cwd
        self.proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> Probe:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe", str(self.log)],
            stdin=subprocess.PIPE, env=self.env, cwd=str(self.cwd),
        )
        try:
            deadline = now() + START_TIMEOUT
            while len(self.samples()) < MIN_SAMPLES:
                if self.proc.poll() is not None or now() > deadline:
                    raise RuntimeError("the speed probe did not start")
                time.sleep(INTERVAL)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop()

    def samples(self) -> List[Sample]:
        """What the probe has logged so far, in stamp order."""
        if not self.log.exists():
            return []
        lines = self.log.read_text().split("\n")[:-1]  # drops a line being written
        return [(float(a), float(b)) for a, b in (line.split() for line in lines)]

    def settle(self) -> List[Sample]:
        """Samples once the probe has logged ``MIN_SAMPLES`` past this moment."""
        time.sleep(INTERVAL * (MIN_SAMPLES + 2))
        return self.samples()

    def _stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.stdin is not None:
            self.proc.stdin.close()  # the probe exits at end of input
        try:
            self.proc.wait(timeout=START_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Chunk:
    """A fixed piece of work in parts, each of a kind the program does.

    Shortest paths on a small graph (interpreter-bound) and on a big one
    (pointer chasing through a heap too big for a core's caches), random
    reads from a big array and dict, building and reading small dicts,
    arithmetic on small arrays, parsing JSON and hashing bytes. No single
    part followed the ops' cost through the host's slow spells as closely
    as their sum did.
    """

    def __init__(self) -> None:
        import numpy as np

        generator = np.random.default_rng(7)
        self.small = generator.integers(0, 300, (300, 4)).tolist()
        self.big = generator.integers(0, 200_000, (200_000, 3)).tolist()
        self.weight = generator.random(200_000).tolist()
        self.sources = generator.integers(0, 200_000, 64).tolist()
        self.calls = 0
        self.array = generator.random(4_000_000)
        self.index = generator.integers(0, len(self.array), 5_000)
        self.table = {key: key for key in range(200_000)}
        self.keys = generator.integers(0, 200_000, 1_000).tolist()
        self.vector = np.arange(64.0)
        self.document = json.dumps([{"id": i, "fee": i / 7, "path": list(range(i % 9))}
                                    for i in range(200)])
        self.blob = bytes(range(256)) * 400

    @staticmethod
    def _paths(adjacency: Sequence[Sequence[int]], weight: Callable[[int], float],
               source: int, limit: int) -> int:
        dist: Dict[int, float] = {}
        heap = [(0.0, source)]
        while heap and len(dist) < limit:
            d, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = d
            for v in adjacency[u]:
                if v not in dist:
                    heapq.heappush(heap, (d + weight(v), v))
        return len(dist)

    def __call__(self) -> float:
        total = 0.0
        total += self._paths(self.small, lambda v: 1 + v % 3, self.calls % 300, 300)
        self.calls += 1
        source = self.sources[self.calls % len(self.sources)]
        total += self._paths(self.big, self.weight.__getitem__, source, 500)
        total += float(self.array[self.index].sum())
        total += sum(self.table[key] for key in self.keys)
        rows = [{"a": i, "b": (i, i + 1), "c": [i] * 3} for i in range(1_500)]
        total += sum(row["a"] + row["b"][1] + len(row["c"]) for row in rows)
        total += sum(float((self.vector * i).sum()) for i in range(100))
        total += len(json.loads(self.document))
        total += hashlib.sha256(self.blob).digest()[0]
        return total


def main(argv: Sequence[str]) -> int:
    chunk = Chunk()
    gc.disable()  # a collection over the probe's big heap would be a spike
    chunk()
    with open(argv[0], "a", encoding="utf-8") as log:
        while True:
            began = time.thread_time()
            chunk()
            spent = time.thread_time() - began
            log.write(f"{now():.6f} {spent:.9f}\n")
            log.flush()
            readable, _, _ = select.select([sys.stdin], [], [], INTERVAL)
            if readable:  # end of input: the benchmark is done
                return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
