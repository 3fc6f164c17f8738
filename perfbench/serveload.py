"""Closed-loop load generator for the ``repro-serve`` workload.

``start_server`` launches ``repro-serve`` as its own process group on an
ephemeral port and times set-up as spawn until ``/healthz`` answers
(the service pre-spawns its pool workers before it listens).
``drive`` then sends a cold phase of distinct keys and a warm phase that
replays them, over a fixed number of keep-alive connections, each
sending its next request only after the previous reply: the callers of
the service (``ServeClient``, the ablation scripts) all await replies.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.client import ServeClient

#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0


def start_server(env: dict, root: Path, store: Path, scale: float) -> tuple:
    """Spawn ``repro-serve``; returns ``(process, port, setup_s)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.tools.serve_tool",
            "--port",
            "0",
            "--workers",
            "1",
            "--scale",
            str(scale),
            "--num-roots",
            "1",
            "--store-dir",
            str(store),
        ],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120.0)
        line = proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        status, _ = asyncio.run(_get(port, "/healthz"))
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.perf_counter() - start


def stop_server(proc: subprocess.Popen) -> None:
    """Interrupt the server, wait for it, then clear its process group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of ``pid`` plus its child processes, in MB."""
    pids = [pid]
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            pids.append(int(entry.name))
    total_kb = 0
    for member in pids:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


async def _get(port: int, path: str) -> tuple[int, dict]:
    async with ServeClient("127.0.0.1", port) as client:
        return await asyncio.wait_for(client.get(path), REQUEST_TIMEOUT_S)


async def _phase(
    port: int, bodies: list[tuple], connections: int, order, expected=None
) -> tuple:
    """Send ``bodies[i]`` (``(path, body)``) for each ``i`` of ``order``.

    ``connections`` callers share the ``order`` iterator.  Returns
    ``(records, wall_s)``; each record is ``(index, status, rtt_s,
    source, total_ms, queue_ms, compute_ms, result)`` with ``status`` 0
    for a refused, dropped or timed out request.  With ``expected``
    (index -> result), ``result`` is only whether the reply matched, so
    a long phase keeps no payloads.
    """
    records: list[tuple] = []
    cursor = iter(order)

    async def caller() -> None:
        client = ServeClient("127.0.0.1", port)
        try:
            for index in cursor:
                path, body = bodies[index]
                t0 = time.perf_counter()
                try:
                    status, payload = await asyncio.wait_for(
                        client.post(path, body), REQUEST_TIMEOUT_S
                    )
                except (OSError, EOFError, asyncio.TimeoutError, ValueError):
                    status, payload = 0, {}
                    await client.close()
                rtt_s = time.perf_counter() - t0
                meta = payload.get("meta", {}) if status == 200 else {}
                result = payload.get("result")
                if expected is not None:
                    result = result is not None and result == expected.get(index)
                records.append(
                    (
                        index,
                        status,
                        rtt_s,
                        meta.get("source"),
                        meta.get("total_ms", 0.0),
                        meta.get("queue_ms", 0.0),
                        meta.get("compute_ms", 0.0),
                        result,
                    )
                )
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(connections)))
    return records, time.perf_counter() - start


def drive(
    port: int, keys: list[tuple], warm_until: float, seed: int, connections: int
) -> dict:
    """Cold phase over ``keys`` in order, then a warm phase: every key
    once in seeded order, then seeded uniform keys until ``warm_until``
    (``time.monotonic()``).

    Each warm reply is compared with the cold reply for its key.
    """
    bodies = [_request(key) for key in keys]
    rng = random.Random(seed)

    def replay():
        yield from rng.sample(range(len(keys)), len(keys))
        while time.monotonic() < warm_until:
            yield rng.randrange(len(keys))

    async def run() -> dict:
        cold, cold_wall = await _phase(port, bodies, connections, range(len(keys)))
        _, between = await _get(port, "/v1/stats")
        expected = {r[0]: r[7] for r in cold if r[1] == 200}
        # The load generator's own garbage collection would show up as
        # server latency; it allocates little per request, so pause it.
        gc.collect()
        gc.disable()
        try:
            warm, warm_wall = await _phase(
                port, bodies, connections, replay(), expected
            )
        finally:
            gc.enable()
        _, after = await _get(port, "/v1/stats")
        return {
            "cold": cold,
            "cold_wall_s": cold_wall,
            "stats_after_cold": between,
            "warm": warm,
            "warm_wall_s": warm_wall,
            "stats": after,
        }

    return asyncio.run(run())


def _request(key: tuple) -> tuple[str, dict]:
    op, app, dataset, technique = key
    if op == "analyze":
        return "/v1/analyze", {"graph": dataset, "technique": technique, "app": app}
    return "/v1/reorder", {"graph": dataset, "technique": technique}
