"""Closed-loop HTTP load generator for the ``serve-mix`` workload.

One process, one connection at a time: it POSTs one job to ``/jobs``,
reads the NDJSON event stream until the ``result`` event, then sends the
next job; jobs are drawn with the seed (:func:`workloads.draws`).  One
client keeps the 2-vCPU reference box from running more busy processes
than it has CPUs (server, client and a busy worker), which would measure
the host's scheduler: with two clients, two busy workers, the server and
the client share two CPUs, and p50 latency spread 0.22 across runs of
the same code, against 0.02 with one.  Every event is timestamped as it
arrives.  Before the measured phase, ``WARMUP_ROUNDS`` passes over the
pool run in spec order (the same for every seed), so every run starts
measuring from a comparably warm server.  ``/stats`` is scraped before
and after the measured phase.  Sending stops once ``--seconds`` have
passed and every goal of the pool was drawn at least once and at least
``MIN_REQUESTS`` were sent (so the p95 latency has at least ten samples
beyond it; ``--smoke`` drops that floor); the request in flight then
finishes.

Prints one JSON line: the per-request records and both ``/stats`` scrapes.
A refused request (HTTP 429 or any other non-200) or a broken stream is a
record with ``"status"`` set to the failure; it counts into ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WARMUP_ROUNDS = 2
MIN_REQUESTS = 200


def request(host: str, port: int, method: str, path: str, body: bytes = b"", timeout=600.0):
    """Send one HTTP/1.1 request; return (status, headers, reader file)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    sock.sendall(head + body)
    reader = sock.makefile("rb")
    sock.close()  # the file object keeps the connection open
    status = int(reader.readline().split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader


def get_json(host: str, port: int, path: str) -> dict:
    status, headers, reader = request(host, port, "GET", path, timeout=30.0)
    with reader:
        body = reader.read(int(headers.get("content-length", 0)))
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return json.loads(body)


def _events(reader):
    """Yield (arrival time, event) from a chunked NDJSON body."""
    while True:
        size_line = reader.readline()
        if not size_line:
            return
        size = int(size_line.strip() or b"0", 16)
        if size == 0:
            return
        data = reader.read(size)
        reader.readline()  # chunk CRLF
        arrived = time.perf_counter()
        for line in data.splitlines():
            if line.strip():
                yield arrived, json.loads(line)


def post_job(host: str, port: int, body: bytes) -> dict:
    """One closed-loop request: send, then timestamp every event until ``result``."""
    record: Dict[str, object] = {"sent": time.perf_counter(), "events": {}}
    try:
        status, headers, reader = request(host, port, "POST", "/jobs", body)
    except OSError as err:
        record.update(status=f"error: {err}", done=time.perf_counter())
        return record
    with reader:
        if status != 200:
            record.update(status=f"http {status}", done=time.perf_counter())
            return record
        times: Dict[str, float] = record["events"]  # type: ignore[assignment]
        for arrived, event in _events(reader):
            kind = event.get("event")
            times.setdefault(kind, arrived)
            if kind == "result":
                record["result"] = event
                break
    record["done"] = time.perf_counter()
    result = record.get("result")
    if result is None:
        record["status"] = "error: stream ended without a result"
    elif result.get("error") or result.get("cancelled") or result.get("timed_out"):
        record["status"] = "failed: " + str(
            result.get("error") or ("cancelled" if result.get("cancelled") else "timeout")
        )
    else:
        record["status"] = "ok"
    return record


def closed_loop(host: str, port: int, draw, more) -> List[dict]:
    """Send the jobs of ``draw`` one after another while ``more(item, sent)`` holds."""
    records: List[dict] = []
    for item in draw:
        if not more(item, len(records)):
            break
        body = json.dumps({"spec": item.spec(), "modes": [item.mode]}).encode()
        record = post_job(host, port, body)
        record.update(tag=item.tag, id=len(records) + 1)
        records.append(record)
    return records


def run(host: str, port: int, items, seed: int, seconds: float, min_requests: int) -> dict:
    warmup = iter(list(items) * WARMUP_ROUNDS)
    closed_loop(host, port, warmup, lambda item, sent: True)
    pending = {item.tag for item in items}

    def more(item, sent: int) -> bool:
        if time.perf_counter() >= deadline and not pending and sent >= min_requests:
            return False
        pending.discard(item.tag)
        return True

    before = get_json(host, port, "/stats")
    start = time.perf_counter()
    deadline = start + seconds
    records = closed_loop(host, port, workloads.draws(items, seed), more)
    end = time.perf_counter()
    after = get_json(host, port, "/stats")
    return {
        "elapsed_s": end - start,
        "requests": records,
        "stats_before": before,
        "stats_after": after,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    items = workloads.pool("serve-mix", workloads.load_specs(), args.smoke)
    min_requests = 0 if args.smoke else MIN_REQUESTS
    report = run(args.host, args.port, items, args.seed, args.seconds, min_requests)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
