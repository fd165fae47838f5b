#!/usr/bin/env python3
"""Receiving side of the wire-loopback workload, one child process.

Started by workload.py.  It binds a UDP socket on 127.0.0.1, reports the
port as one JSON line on stdout, then serves rounds: each JSON line on
stdin starts one wire.run_receiver call that ends after the round's samples
have decoded.  The chunks still in flight after the last decode are read
until the sender's end marker and counted, and one JSON line reports the
round.  A line {"quit": true}, or end of input, ends the process.
"""

from __future__ import annotations

import json
import select
import socket
import sys
import time

from workload import (
    WIRE_END,
    WIRE_K,
    WIRE_N,
    WIRE_PAYLOAD,
    Deadline,
    digest,
    import_agefec,
    peak_rss_mb,
)

# Room for several hundred chunk datagrams, so a receiver descheduled for a
# few milliseconds on a shared host does not lose chunks in the kernel.
RCVBUF_BYTES = 4 << 20
END_WAIT_S = 5.0


def drain(sock: socket.socket) -> tuple[int, bool]:
    """Count the chunk datagrams left before the end marker."""
    chunks = 0
    deadline = time.monotonic() + END_WAIT_S
    while time.monotonic() < deadline:
        readable, _, _ = select.select([sock], [], [], 0.05)
        if not readable:
            continue
        data = sock.recv(65535)
        if data == WIRE_END:
            return chunks, True
        if data[:4] == b"A3LF":
            chunks += 1
    return chunks, False


def main() -> int:
    import_agefec()
    from agefec import experiments

    wire, coding = sys.modules["agefec.wire"], sys.modules["agefec.coding"]
    config = experiments.build_spec(
        overrides={
            "mode": "wire-recv",
            "listen": ("127.0.0.1", 0),
            "k": WIRE_K,
            "n_init": WIRE_N,
            "payload_bytes": WIRE_PAYLOAD,
        }
    ).wire_config()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF_BYTES)
    sock.bind(config.listen)

    decoded: list[str] = []
    parity = [0]

    def decode_hook(shares, k, n, payload_len):
        if sorted(shares)[:k] != list(range(k)):
            parity[0] += 1
        payload = coding.decode_payload(shares, k, n, payload_len)
        decoded.append(digest(payload))
        return payload

    wire.decode_payload = decode_hook
    tracer = None
    print(json.dumps({"port": sock.getsockname()[1]}), flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command.get("quit"):
                break
            if command["trace"] and tracer is None:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            decoded.clear()
            parity[0] = 0
            before = tracer.by_name() if tracer is not None else {}
            samples = command["samples"]
            cpu0 = time.process_time()
            log = wire.run_receiver(
                config, stop=Deadline(5.0 + 0.02 * samples), sock=sock, max_samples=samples
            )
            t_done = time.monotonic()
            cpu = time.process_time() - cpu0
            drained, end_seen = drain(sock)
            reply = {
                "t_done": t_done,
                "cpu": cpu,
                "rss_mb": peak_rss_mb(),
                "digests": list(decoded),
                "parity": parity[0],
                "end_seen": end_seen,
                "log": {
                    "chunks_received": log.chunks_received,
                    "duplicates": log.duplicates,
                    "malformed": log.malformed,
                    "decoded_samples": log.decoded_samples,
                    "payload_ok": log.payload_ok,
                    "mean_delay_ms": log.mean_delay_ms,
                    "drained": drained,
                },
            }
            if tracer is not None:
                reply["totals"] = {
                    name: [v - b for v, b in zip(entry, before.get(name, (0, 0, 0, 0)))]
                    for name, entry in tracer.by_name().items()
                }
                reply["state_counts"] = tracer.take_state_counts()
            print(json.dumps(reply), flush=True)
    finally:
        if tracer is not None:
            tracer.write("perfbench/out/trace-wire-loopback-receiver.json")
        sock.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
