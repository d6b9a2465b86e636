"""The ``serve-sweep`` workload: one closed-loop client of ``repro serve``.

The timed run spawns ``python -m repro serve`` with CLI defaults (two
process workers) on an empty store, submits a sweep of distinct points
with ``wait=True`` (every job a store miss), then submits the same sweep
again (every job a store hit), each point as many times over as fill
``MIN_SAMPLE_S`` of CPU. A submit costs the CPU its client thread, the
daemon and the workers spent on it. The traced run hosts ``ServiceServer``
in this process with thread workers, so the span wrappers also see the
daemon-side calls.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.clock import monotonic
from repro.scenarios import derive_seed
from repro.service import ServiceClient, ServiceServer

from . import spans
from .probe import MIN_SAMPLE_S, Cost, now
from .workloads import SERVE, Golden, check_op, serve_point

#: Points in each pass of the traced run.
TRACE_POINTS = 12
#: Share of the run the cold pass may take; the cached pass is faster.
COLD_SHARE = 0.9
#: Cold submits after which peak RSS is read: both workers have run a
#: job by then, and later jobs only grow the daemon's caches, by as
#: many jobs as the host's speed let the run make.
RSS_AFTER = 2
#: Seconds a daemon may take to come up or go down.
DAEMON_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class Daemon:
    """A ``python -m repro serve`` child process on an ephemeral port."""

    def __init__(self, env: Mapping[str, str], cwd: Path, store: Path) -> None:
        self.client: Optional[ServiceClient] = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store)],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(env),
            cwd=str(cwd),
        )
        watchdog = threading.Timer(DAEMON_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline() if self.proc.stdout else ""
        finally:
            watchdog.cancel()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not come up: {line!r}")
        self.client = ServiceClient(match.group(1), int(match.group(2)), timeout=600.0)

    def pids(self) -> List[int]:
        """The daemon and its worker processes."""
        children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children")
        return [self.proc.pid] + [int(pid) for pid in children.read_text().split()]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon plus its worker processes."""
        total_kb = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def task_cpu(self) -> Dict[Tuple[int, str], int]:
        """CPU nanoseconds of each live thread of the daemon and its workers."""
        cpu = {}
        for pid in self.pids():
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    stat = Path(f"/proc/{pid}/task/{tid}/schedstat").read_text()
                    cpu[pid, tid] = int(stat.split()[0])
            except FileNotFoundError:  # a thread or worker that just ended
                continue
        return cpu

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.client is None:
                    raise RuntimeError("daemon never answered")
                self.client.shutdown()
            except Exception:  # gone or unresponsive: kill it instead
                self.proc.kill()
        try:
            self.proc.wait(timeout=DAEMON_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _check_jobs(
    seed: int, cold: List[Dict[str, Any]], cached: List[Dict[str, Any]], golden: Golden
) -> Tuple[int, List[str]]:
    """Failed submits and what was wrong; a bad point fails both its submits."""
    failed = 0
    problems: List[str] = []
    for index, (first, second) in enumerate(zip(cold, cached)):
        found = []
        if first["state"] != "done":
            found.append(f"cold job {index} was {first['state']}, not done")
        if second["state"] != "cached":
            found.append(f"repeat job {index} was {second['state']}, not cached")
        found += check_op(SERVE, seed, index, [first["result"]], [second["result"]], golden)
        if found:
            failed += 2  # both submits of the point
            problems += [f"point {index}: {problem}" for problem in found]
    return failed, problems


def _submit(
    daemon: Daemon, document: Dict[str, Any], repeats: int = 1
) -> Tuple[List[Dict[str, Any]], Cost]:
    """Back-to-back ``wait=True`` submits and their mean CPU cost to the
    client thread, the daemon and its workers."""
    before = daemon.task_cpu()
    began, client = now(), time.thread_time()
    responses = [daemon.client.submit(document, wait=True) for _ in range(repeats)]
    ended, client = now(), time.thread_time() - client
    after = daemon.task_cpu()
    served = sum(ns - before.get(task, 0) for task, ns in after.items()) / 1e9
    return responses, Cost(began, ended, (client + served) / repeats)


def timed(
    seed: int, seconds: float, golden: Golden, env: Mapping[str, str], root: Path,
    scratch: Path, setup_repeats: int,
) -> Dict[str, Any]:
    """Setup, cold and cached submit costs, peak RSS and failures."""
    start = monotonic()
    setup: List[Cost] = []
    daemon: Optional[Daemon] = None
    for _ in range(setup_repeats):
        if daemon is not None:
            daemon.stop()
        store = Path(tempfile.mkdtemp(dir=scratch))
        began = now()
        daemon = Daemon(env, root, store)
        daemon.client.ping()
        setup.append(Cost(began, now(), sum(daemon.task_cpu().values()) / 1e9))
    assert daemon is not None
    try:
        documents, cold, cold_costs = [], [], []
        cold_start = monotonic()
        while True:
            document = serve_point(derive_seed(seed, len(cold)))[0].to_dict()
            documents.append(document)
            (response,), cost = _submit(daemon, document)
            cold.append(response)
            cold_costs.append(cost)
            if len(cold) == RSS_AFTER:
                rss = daemon.peak_rss_mb()
            ended = monotonic()
            if ended - start + (ended - cold_start) / len(cold) > seconds * COLD_SHARE:
                break
        cached, cached_costs, repeated = [], [], []
        for document in documents:
            (response,), first = _submit(daemon, document)
            repeats = math.ceil(MIN_SAMPLE_S / max(first.cpu_s, 1e-6))
            responses, cost = _submit(daemon, document, repeats)
            cached.append(response)
            cached_costs.append(cost)
            repeated.append(responses)
        if len(cold) < RSS_AFTER:
            rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    failed, problems = _check_jobs(seed, cold, cached, golden)
    for index, (response, responses) in enumerate(zip(cached, repeated)):
        if any((r["state"], r["result"]) != ("cached", response["result"]) for r in responses):
            failed += 1
            problems.append(f"point {index}: a repeated cached submit differs")
    return {
        "setup": setup, "op": cold_costs, "cached": cached_costs, "rss_mb": rss,
        "attempted": len(cold) + len(cached) + sum(map(len, repeated)),
        "failed": failed, "problems": problems,
    }


@contextmanager
def hosted(store: Path) -> Iterator[ServiceClient]:
    """A ``ServiceServer`` with thread workers on a thread of this process."""
    started = threading.Event()
    box: Dict[str, Any] = {}

    def host() -> None:
        async def main() -> None:
            server = ServiceServer(store=str(store), port=0, worker="thread", workers=2)
            await server.start()
            box["port"] = server.port
            started.set()
            await server.serve_forever()

        try:
            asyncio.run(main())
        finally:
            started.set()

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    started.wait(DAEMON_TIMEOUT)
    if "port" not in box:
        raise RuntimeError("in-process ServiceServer did not start")
    client = ServiceClient(port=box["port"], timeout=600.0)
    try:
        yield client
    finally:
        client.shutdown()
        thread.join(DAEMON_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("in-process ServiceServer did not stop")


def _sweep(client: ServiceClient, seed: int, tracer: spans.Tracer) -> Tuple[list, float]:
    """Cold pass then cached pass over :data:`TRACE_POINTS` points, one op each."""
    documents = [serve_point(derive_seed(seed, index))[0].to_dict()
                 for index in range(TRACE_POINTS)]
    responses = []
    total = 0.0
    for document in documents + documents:
        response, seconds = spans.op(tracer, lambda d=document: client.submit(d, wait=True))
        responses.append(response)
        total += seconds
    return responses, total


def _queue_wait(prometheus: str) -> float:
    """Total queued->running seconds from the daemon's latency histogram."""
    for line in prometheus.splitlines():
        name, _, value = line.partition(" ")
        if name == "repro_service_queue_latency_seconds_sum":
            return float(value)
    raise RuntimeError("daemon metrics carry no queue latency histogram")


def traced(seed: int, golden: Golden, scratch: Path) -> Dict[str, Any]:
    """One untraced and two traced passes, each on a fresh store."""
    with hosted(Path(tempfile.mkdtemp(dir=scratch))) as client:
        # No wrappers installed: the tracer records only the op spans.
        responses, untraced_s = _sweep(client, seed, spans.Tracer())
    failed, problems = _check_jobs(
        seed, responses[:TRACE_POINTS], responses[TRACE_POINTS:], golden
    )
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        with hosted(Path(tempfile.mkdtemp(dir=scratch))) as client:
            with spans.installed(tracer):
                responses, seconds = _sweep(client, seed, tracer)
            stats = client.stats()["queue"]
            queue_wait = _queue_wait(client.metrics()) / len(responses)
        cold, cached = responses[:TRACE_POINTS], responses[TRACE_POINTS:]
        run_failed, run_problems = _check_jobs(seed, cold, cached, golden)
        runs.append({
            "tracer": tracer, "seconds": seconds, "ops": len(responses),
            "failed": run_failed, "problems": run_problems,
            "documents": [response["result"] for response in cold],
            "queue_wait_s": queue_wait,
            "cache_hit_ratio": stats["cached"] / (stats["cached"] + stats["done"]),
        })
    return {
        "untraced_s": untraced_s, "untraced_ops": 2 * TRACE_POINTS, "runs": runs,
        "failed": failed, "problems": problems,
    }
