"""Open-loop HTTP load generator, run as its own process.

The generator sends each request at a fixed due time from a Poisson
schedule, whether or not earlier requests have been answered: a slow
server receives the same load, and its backlog shows as latency.
Requests go out over a few keep-alive connections; when every
connection is busy a due request waits for one, and that wait counts.

Accounting:

* latency runs from the request's **due** time to its last reply byte,
  so a stall also charges every request queued behind it;
* lateness is how long after its due time the dispatcher handed a
  request to the connections; it measures the generator, not the
  server, and a run whose lateness tail is too long is invalid;
* a refused connection, a timeout, a non-200 status or a reply that is
  not JSON is an error.

Run as ``python loadgen.py --port P --schedule FILE --streams A,B
--connections C --timeout T``; it prints one JSON object holding a
record per request.  The schedule file is written by ``inputs.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

#: Ops in schedule-code order (``inputs.py`` writes the codes).
OPS = ("point", "self_join", "join", "expression")


@dataclass
class Outcome:
    """What happened to one scheduled request (times are loop.time())."""

    index: int
    connection: int
    due: float
    late: float
    sent: float
    latency: float
    status: int
    body: Optional[bytes]
    error: Optional[str]


async def _exchange(reader, writer, payload: bytes) -> tuple[int, bytes]:
    writer.write(payload)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    return status, body


async def drive(
    host: str,
    port: int,
    schedule: Sequence[tuple[float, bytes]],
    connections: int,
    timeout: float,
    lead: float = 0.05,
) -> tuple[float, list[Outcome]]:
    """Send *schedule* — ``(due offset, request bytes)`` pairs — open-loop.

    Connections are opened first; the schedule's clock starts *lead*
    seconds later.  Returns ``(start, outcomes)`` with ``start`` on the
    ``time.monotonic`` clock, which other processes on the host share.
    """
    loop = asyncio.get_running_loop()
    due_queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []

    async def connect():
        return await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )

    links = []
    for _ in range(connections):
        try:
            links.append(await connect())
        except (asyncio.TimeoutError, OSError):
            links.append((None, None))  # each request retries, and errs

    start = loop.time() + lead

    async def dispatch() -> None:
        for index, (offset, _payload) in enumerate(schedule):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            due_queue.put_nowait((index, due, loop.time() - due))
        for _ in links:
            due_queue.put_nowait(None)

    async def work(connection: int) -> None:
        reader, writer = links[connection]
        try:
            while True:
                item = await due_queue.get()
                if item is None:
                    return
                index, due, late = item
                sent = loop.time()
                status, body, error = 0, None, None
                try:
                    if writer is None:
                        reader, writer = await connect()
                    status, body = await asyncio.wait_for(
                        _exchange(reader, writer, schedule[index][1]), timeout
                    )
                except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ValueError, IndexError) as exc:
                    error = type(exc).__name__
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                outcomes.append(
                    Outcome(index, connection, due, late, sent,
                            loop.time() - due, status, body, error)
                )
        finally:
            if writer is not None:
                writer.close()

    workers = [asyncio.create_task(work(c)) for c in range(len(links))]
    await dispatch()
    await asyncio.gather(*workers)
    outcomes.sort(key=lambda outcome: outcome.index)
    return start, outcomes


def build_requests(ops, keys, picks, streams: Sequence[str]) -> list[bytes]:
    """HTTP request bytes for each scheduled query.

    *ops* are codes into :data:`OPS`; *picks* choose which of the two
    *streams* a point or self-join query reads; joins and the union
    expression always span both streams.
    """
    first, second = streams
    requests = []
    for op, key, pick in zip(ops, keys, picks):
        stream = streams[int(pick)]
        name = OPS[int(op)]
        if name == "point":
            target, body = f"/v1/query/point?stream={stream}&key={int(key)}", b""
        elif name == "self_join":
            target, body = f"/v1/query/self_join?stream={stream}", b""
        elif name == "join":
            target, body = f"/v1/query/join?left={first}&right={second}", b""
        else:
            target = "/v1/query/expression"
            body = json.dumps({"op": "union", "streams": [first, second]}).encode()
        method = "POST" if body else "GET"
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        requests.append(head.encode("latin-1") + body)
    return requests


def summarize(outcome: Outcome, op: str) -> dict:
    """The facts the benchmark checks and times, from one outcome."""
    record = {
        "op": op,
        "connection": outcome.connection,
        "due": outcome.due,
        "late": outcome.late,
        "latency": outcome.latency,
        "status": outcome.status,
        "error": outcome.error,
    }
    if outcome.error is None and outcome.status == 200:
        try:
            reply = json.loads(outcome.body)
            record["estimate"] = reply["estimate"]
            record["low"] = reply["interval"]["low"]
            record["high"] = reply["interval"]["high"]
            record["generations"] = {
                name: meta["generation"] for name, meta in reply["streams"].items()
            }
            record["staleness"] = [
                meta["staleness_seconds"] for meta in reply["streams"].values()
            ]
        except (ValueError, KeyError, TypeError):
            record["error"] = "malformed"
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    import numpy as np

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--schedule", required=True)
    parser.add_argument("--streams", required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--timeout", type=float, required=True)
    args = parser.parse_args(argv)
    with np.load(args.schedule) as data:
        due, ops, keys, picks = (data[k] for k in ("due", "op", "key", "pick"))
    streams = args.streams.split(",")
    requests = build_requests(ops, keys, picks, streams)
    schedule = list(zip(due.tolist(), requests))
    start, outcomes = asyncio.run(
        drive(args.host, args.port, schedule, args.connections, args.timeout)
    )
    records = [summarize(o, OPS[int(ops[o.index])]) for o in outcomes]
    json.dump({"start": start, "records": records}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
