"""Datagram formats, the endpoint cores and the UDP endpoints on loopback."""

import contextlib
import errno
import hashlib
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agefec import wire
from agefec.adaptive_sampling import (
    ADAPTIVE_COLUMNS,
    monitoring_interval_length,
    restart_rate,
    select_block_length,
)
from agefec.cli import main
from agefec.coding import decode_payload, encode_payload
from agefec.core import ParameterError, serial_diff
from agefec.wire import (
    _CHUNK_HEADER,
    CHUNK_MAGIC,
    DELAY_INF_US,
    FEEDBACK_MAGIC,
    ID_WINDOW,
    RTT_INIT,
    WIRE_VERSION,
    BadMagicError,
    ChunkPacket,
    FeedbackPacket,
    FieldRangeError,
    TruncatedPacketError,
    VersionMismatchError,
    WireConfig,
    WireDecodeError,
    run_receiver,
    run_sender,
    sample_payload,
)


def make_chunk(**kw):
    base = dict(
        sample_id=12345,
        gen_timestamp_us=987654321,
        chunk_index=2,
        k=3,
        n=5,
        payload=b"\x01\x02\x03\x04",
    )
    base.update(kw)
    return ChunkPacket(**base)


def test_chunk_header_is_22_bytes():
    pkt = make_chunk()
    assert len(pkt.encode()) == 22 + len(pkt.payload)
    assert pkt.encode()[:4] == CHUNK_MAGIC
    assert pkt.encode()[4] == WIRE_VERSION


def test_chunk_roundtrip():
    pkt = make_chunk(payload=bytes(range(200)))
    assert ChunkPacket.decode(pkt.encode()) == pkt


def test_chunk_decode_errors():
    buf = make_chunk().encode()
    with pytest.raises(TruncatedPacketError):
        ChunkPacket.decode(buf[:10])
    with pytest.raises(TruncatedPacketError):
        ChunkPacket.decode(buf[:-2])  # payload shorter than declared
    with pytest.raises(WireDecodeError):
        ChunkPacket.decode(buf + b"x")  # trailing junk
    with pytest.raises(BadMagicError):
        ChunkPacket.decode(b"XXXX" + buf[4:])
    with pytest.raises(VersionMismatchError):
        ChunkPacket.decode(buf[:4] + bytes([WIRE_VERSION + 1]) + buf[5:])


def test_chunk_field_validation():
    with pytest.raises(ParameterError):
        make_chunk(k=6)  # k > n
    with pytest.raises(ParameterError):
        make_chunk(chunk_index=5)  # index out of range
    with pytest.raises(ParameterError):
        make_chunk(sample_id=2**32)
    with pytest.raises(ParameterError):
        make_chunk(sample_id=-1)


def test_feedback_is_30_bytes_and_roundtrips():
    fb = FeedbackPacket(
        mi_index=7,
        rate_milli=2500,
        new_n=6,
        new_ts_ms=2,
        av_ratio_milli=15,
        pdr_milli=950,
        mean_delay_us=2300,
    )
    buf = fb.encode()
    assert len(buf) == 30
    assert buf[:4] == FEEDBACK_MAGIC
    assert FeedbackPacket.decode(buf) == fb
    assert fb.sigma == pytest.approx(2.5)
    assert fb.mean_delay_ms == pytest.approx(2.3)


def test_feedback_from_values_scaling():
    fb = FeedbackPacket.from_values(3, 2.5047, 6, 2, 0.0123, 0.987, 2.345)
    assert fb.rate_milli == 2505
    assert fb.av_ratio_milli == 12
    assert fb.pdr_milli == 987
    assert fb.mean_delay_us == 2345
    # nothing arrived: the sentinel survives the round trip
    silent = FeedbackPacket.from_values(3, 1.0, 4, 4, 0.0, 0.0, math.inf)
    assert silent.mean_delay_us == DELAY_INF_US
    assert math.isinf(FeedbackPacket.decode(silent.encode()).mean_delay_ms)


def test_feedback_from_values_clamps():
    fb = FeedbackPacket.from_values(5, 10.0, 4, 4, 99.0, 1.0, 1e17)
    assert fb.av_ratio_milli == 65535
    assert fb.mean_delay_us == DELAY_INF_US - 1


def test_feedback_decode_errors():
    buf = FeedbackPacket.from_values(1, 1.0, 4, 4, 0.0, 1.0, 2.0).encode()
    with pytest.raises(TruncatedPacketError):
        FeedbackPacket.decode(buf[:-1])
    with pytest.raises(WireDecodeError):
        FeedbackPacket.decode(buf + b"\x00")
    with pytest.raises(BadMagicError):
        FeedbackPacket.decode(b"YYYY" + buf[4:])


def test_sample_payload_deterministic():
    assert sample_payload(42, 64) == sample_payload(42, 64)
    assert sample_payload(42, 64) != sample_payload(43, 64)
    assert len(sample_payload(0, 100)) == 100


def test_wire_config_validation():
    with pytest.raises(ParameterError):
        WireConfig(slot_ms=0)
    with pytest.raises(ParameterError):
        WireConfig(avt_ms=1, slot_ms=2)
    with pytest.raises(ParameterError):
        WireConfig(drop_shim=1.0)
    with pytest.raises(ParameterError):
        WireConfig(fixed_rate=0.0)
    with pytest.raises(ParameterError):  # a chunk would overflow the 16-bit length field
        WireConfig(k=1, n_init=2, payload_bytes=65536)
    assert WireConfig(k=2, n_init=2, payload_bytes=65536).payload_bytes == 65536
    assert WireConfig(avt_ms=100, slot_ms=1).avt_slots == 100
    assert WireConfig(avt_ms=100, slot_ms=8).avt_slots == 12


@pytest.mark.parametrize("k, n_init", [(0, 5), (4, 3), (3, 300)])
def test_wire_config_rejects_bad_code_dimensions(k, n_init, tmp_path, capsys):
    with pytest.raises(ParameterError):
        WireConfig(k=k, n_init=n_init)
    argv = ["wire-send", "--dest", "127.0.0.1:9", "--samples", "2", "--out", str(tmp_path),
            "--k", str(k), "--n-init", str(n_init)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("agefec: error:")


def test_sender_requires_destination():
    with pytest.raises(ParameterError):
        run_sender(WireConfig())


def test_drop_shim_blocks_everything():
    # drop probability just under the validation limit still lets the rng
    # reject essentially every chunk of a short run
    recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv.bind(("127.0.0.1", 0))
    try:
        cfg = WireConfig(
            dest=recv.getsockname(),
            avt_ms=50,
            payload_bytes=30,
            samples=4,
            fixed_rate=1.0,
            drop_shim=0.999999,
            shim_seed=1,
        )
        log = run_sender(cfg)
        assert log.samples_sent == 4
        assert log.chunks_sent + log.shim_dropped == 4 * cfg.n_init
        assert log.shim_dropped >= 19
    finally:
        recv.close()


def test_loopback_decodes_everything():
    """Clean loopback: every sample decodes byte-exact, nothing duplicated."""
    recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv_sock.bind(("127.0.0.1", 0))
    stop = threading.Event()
    cfg = WireConfig(
        dest=recv_sock.getsockname(),
        k=3,
        n_init=5,
        avt_ms=40,
        payload_bytes=90,
        samples=80,
    )
    result = {}

    def recv_main():
        result["log"] = run_receiver(cfg, stop=stop, sock=recv_sock, max_samples=80)

    thread = threading.Thread(target=recv_main)
    thread.start()
    try:
        send_log = run_sender(cfg)
        thread.join(timeout=10.0)
    finally:
        stop.set()
        thread.join(timeout=2.0)
        recv_sock.close()
    assert not thread.is_alive()
    log = result["log"]
    assert send_log.samples_sent == 80
    assert log.decoded_samples == 80
    assert log.payload_ok == 80
    assert log.malformed == 0
    assert log.duplicates == 0
    # the receiver returns on the decoding chunk of the last sample, so up
    # to n - k of its trailing chunks can go unread
    assert send_log.chunks_sent - (cfg.n_init - cfg.k) <= log.chunks_received <= send_log.chunks_sent
    assert log.min_delay_ms < 50.0


def test_loopback_round_keeps_the_benchmark_contract(monkeypatch):
    """A wire-loopback benchmark round, checked as the benchmark checks it.

    Recording wrappers stand in for the codec names in `wire`, both
    endpoints get their sockets passed in, the receiver returns at its 50th
    decode, and the chunks still in flight are read up to an end marker.
    """
    encoded, decoded = [], []

    def record_encode(payload, k, n):
        encoded.append(payload)
        return encode_payload(payload, k, n)

    def record_decode(shares, k, n, nbytes):
        decoded.append(decode_payload(shares, k, n, nbytes))
        return decoded[-1]

    monkeypatch.setattr(wire, "encode_payload", record_encode)
    monkeypatch.setattr(wire, "decode_payload", record_decode)
    recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
    recv_sock.bind(("127.0.0.1", 0))
    send_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    send_sock.bind(("127.0.0.1", 0))
    cfg = WireConfig(dest=recv_sock.getsockname(), k=8, n_init=16, payload_bytes=4096, samples=50,
                     fixed_rate=16.0, drop_shim=0.1, shim_seed=3)
    deadline = time.monotonic() + 10.0
    stop = SimpleNamespace(is_set=lambda: time.monotonic() >= deadline)  # is_set is all it has
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(log=run_receiver(cfg, stop=stop, sock=recv_sock, max_samples=50))
    )
    thread.start()
    left, marker = 0, False
    try:
        send_log = run_sender(cfg, sock=send_sock)
        thread.join(timeout=10.0)
        send_sock.sendto(b"END", recv_sock.getsockname())
        recv_sock.settimeout(5.0)
        while not marker:
            data = recv_sock.recv(65535)
            marker = data == b"END"
            left += not marker
    finally:
        deadline = 0.0
        thread.join(timeout=2.0)
        send_sock.close()
        recv_sock.close()
    assert not thread.is_alive()
    log = result["log"]
    assert send_log.samples_sent == log.decoded_samples == log.payload_ok == 50
    assert len(encoded) == len(decoded) == 50 and Counter(encoded) == Counter(decoded)
    assert log.chunks_received + left == send_log.chunks_sent
    assert marker


def test_receiver_asks_for_a_large_buffer_on_its_own_socket(monkeypatch):
    """Its own socket gets what the kernel grants for 4 MiB; a socket passed in keeps its own."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        default = probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        granted = probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    seen = []

    class Recording(socket.socket):
        def bind(self, address):
            super().bind(address)
            seen.append(self.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF))

    names = {n: getattr(socket, n) for n in ("AF_INET", "SOCK_DGRAM", "SOL_SOCKET", "SO_RCVBUF")}
    monkeypatch.setattr(wire, "socket", SimpleNamespace(socket=Recording, **names))
    stopped = SimpleNamespace(is_set=lambda: True)
    run_receiver(WireConfig(listen=("127.0.0.1", 0)), stop=stopped)
    assert seen == [granted]
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as given:
        given.bind(("127.0.0.1", 0))
        run_receiver(WireConfig(), stop=stopped, sock=given)
        assert given.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) == default


def test_crafted_feedback_changes_sender_pacing():
    """Feedback with a new sampling interval takes effect at the sender."""
    fake_recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    fake_recv.bind(("127.0.0.1", 0))
    fake_recv.settimeout(5.0)
    stop = threading.Event()
    cfg = WireConfig(
        dest=fake_recv.getsockname(),
        k=3,
        n_init=5,
        avt_ms=100,
        payload_bytes=30,
    )
    result = {}

    def send_main():
        result["log"] = run_sender(cfg, stop=stop)

    thread = threading.Thread(target=send_main)
    thread.start()
    try:
        data, sender_addr = fake_recv.recvfrom(65535)
        ChunkPacket.decode(data)
        fb = FeedbackPacket.from_values(1, 0.25, 4, 25, 0.0, 1.0, 2.0)
        fake_recv.sendto(fb.encode(), sender_addr)
        # a few sample boundaries pass; the staged parameters swap in
        time.sleep(0.4)
    finally:
        stop.set()
        thread.join(timeout=3.0)
        fake_recv.close()
    assert not thread.is_alive()
    log = result["log"]
    assert log.feedback_applied == 1
    assert log.final_ts_ms == 25
    assert log.final_n == 4
    assert log.final_sigma == pytest.approx(0.25)
    assert any(row[4] == "apply" for row in log.rows)


def test_receiver_pdr_follows_the_n_packets_carry():
    """The receiver estimates sent chunks from the n in the packets, not its own n.

    With a fixed-rate sender the receiver's controller still moves its own n;
    the delivery ratio it reports must stay at the shim's pass ratio anyway.
    """
    cfg = WireConfig(k=8, n_init=16, avt_ms=40, payload_bytes=64, samples=2000,
                     fixed_rate=16.0, drop_shim=0.1, shim_seed=5)
    send_log, log, _span = virtual_link(cfg)
    pass_ratio = send_log.chunks_sent / (send_log.chunks_sent + send_log.shim_dropped)
    rows = log.rows
    pdr_col, n_col = ADAPTIVE_COLUMNS.index("pdr"), ADAPTIVE_COLUMNS.index("n")
    assert len(rows) >= 3
    assert {row[n_col] for row in rows} - {cfg.n_init}  # the receiver's n moved
    for row in rows[1:]:
        assert abs(row[pdr_col] - pass_ratio) <= 0.05, (row, pass_ratio)


def test_late_sender_paces_from_the_clock_after_encoding(monkeypatch):
    """A sample that costs 1.5 slots to encode is followed by the next one at once.

    Virtual time: the clock moves only when encoding (1500 us) or waiting in
    select (by its timeout), so the elapsed time counts exactly the sleeps
    the sender chose.  A sender that computes its wait from the clock read
    before encoding sleeps a further slot per sample (2.5 ms each).
    """
    clock = [10_000_000]

    def advance(us):
        clock[0] += int(round(us))

    def fake_select(rlist, wlist, xlist, timeout):
        advance(timeout * 1e6)
        return [], [], []

    def slow_encode(payload, k, n):
        advance(1500)
        return [b"x"] * n

    monkeypatch.setattr(wire, "now_us", lambda: clock[0])
    monkeypatch.setattr(wire, "select", SimpleNamespace(select=fake_select))
    monkeypatch.setattr(wire, "encode_payload", slow_encode)
    recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv.bind(("127.0.0.1", 0))
    try:
        cfg = WireConfig(dest=recv.getsockname(), k=3, n_init=5, payload_bytes=30,
                         samples=50, fixed_rate=5.0)
        start = clock[0]
        log = run_sender(cfg)
    finally:
        recv.close()
    assert log.samples_sent == 50 and log.stale_skipped == 0
    assert (clock[0] - start) / 50 == pytest.approx(1500, abs=50)


# --------------------------------------------------------------------------
# The cores on a virtual clock


def sample_chunks(sid, at_us, cfg, n=None, indices=None):
    """The datagrams of sample `sid`, generated and due at `at_us`."""
    n = n or cfg.n_init
    parts = encode_payload(sample_payload(sid, cfg.payload_bytes), cfg.k, n)
    return [
        (at_us, ChunkPacket(sid, at_us, idx, cfg.k, n, parts[idx]).encode())
        for idx in (range(n) if indices is None else indices)
    ]


def feed(cfg, datagrams, until_us, start_us=1_000_000):
    """Run a ReceiverCore over (time, datagram) pairs until `until_us`.

    The core is polled at each interval boundary before the next datagram,
    as the receiver's loop wakes for it; a datagram due at a boundary is read
    before the poll.
    """
    core = wire.ReceiverCore(cfg, start_us)
    for at, data in [*sorted(datagrams, key=lambda d: d[0]), (until_us, None)]:
        while core.next_boundary < at:
            core.poll(core.next_boundary)
        if data is not None:
            core.on_datagram(data, at)
    return core.log


def virtual_link(cfg, delay_us=2000, start_us=1_000_000, keep_feedback=lambda i: True):
    """Couple a SenderCore and a ReceiverCore on one virtual clock.

    Datagrams take `delay_us` each way, and the receiver mails feedback
    once a chunk has reached it, as its loop does; the link keeps the i-th
    feedback datagram mailed (from 0) when `keep_feedback(i)` is true and
    drops it otherwise.  The clock jumps from one event to the next until
    the sender is done and nothing is in flight.  Returns both logs and the
    virtual time spanned.
    """
    clock = start_us
    sender, receiver = wire.SenderCore(cfg, clock), wire.ReceiverCore(cfg, clock)
    to_receiver, to_sender = deque(), deque()  # (arrival, datagram); a fixed delay keeps them in order
    heard, mailed = False, 0
    while True:
        datagrams, wake = sender.poll(clock)
        sender.log.chunks_sent += len(datagrams)  # the link takes every datagram
        to_receiver.extend((clock + delay_us, data) for data in datagrams)
        while to_receiver and to_receiver[0][0] <= clock:
            heard |= receiver.on_datagram(to_receiver.popleft()[1], clock)
        feedback, boundary = receiver.poll(clock)
        for data in feedback if heard else ():
            if keep_feedback(mailed):
                to_sender.append((clock + delay_us, data))
            mailed += 1
        while to_sender and to_sender[0][0] <= clock:
            sender.on_datagram(to_sender.popleft()[1], clock)
        if wake is None and not to_receiver:
            return sender.log, receiver.log, clock - start_us
        events = [boundary] + [q[0][0] for q in (to_receiver, to_sender) if q]
        clock = min(events if wake is None else [wake, *events])


def test_virtual_link_adapts_and_delivers_without_wall_time():
    """2000 samples at 10% shim drop: every decode checks out, pdr tracks the shim,
    feedback moves the sender's n, and the run takes less wall time than it spans."""
    cfg = WireConfig(k=8, n_init=16, payload_bytes=64, samples=2000, drop_shim=0.1, shim_seed=5)
    wall = time.monotonic()
    send_log, log, span_us = virtual_link(cfg)
    wall = time.monotonic() - wall
    assert send_log.samples_sent == 2000 and send_log.stale_skipped == 0
    assert log.decoded_samples == log.payload_ok > 0
    pass_ratio = send_log.chunks_sent / (send_log.chunks_sent + send_log.shim_dropped)
    pdr_col = ADAPTIVE_COLUMNS.index("pdr")
    assert len(log.rows) >= 3
    for row in log.rows:
        assert abs(row[pdr_col] - pass_ratio) <= 0.05, (row, pass_ratio)
    assert send_log.feedback_applied > 0
    assert {row[2] for row in send_log.rows if row[4] == "apply"} - {cfg.n_init}
    # nothing sleeps: the run is CPU work only, far shorter than its span
    assert wall < span_us / 1e6 / 4, (wall, span_us)


def test_receiver_measures_delay_in_slots_of_slot_ms(monkeypatch):
    """At 8 ms per slot a lossless 24 ms link reads 3 slots of mean delay in
    every interval, and each feedback datagram carries the 24000 us back."""
    feedback = []
    on_datagram = wire.SenderCore.on_datagram

    def recording(self, buf, now):
        feedback.append(FeedbackPacket.decode(buf))
        return on_datagram(self, buf, now)

    monkeypatch.setattr(wire.SenderCore, "on_datagram", recording)
    cfg = WireConfig(k=3, n_init=5, slot_ms=8, payload_bytes=30, samples=500)
    send_log, log, _span = virtual_link(cfg, delay_us=24_000)
    assert send_log.samples_sent == 500 and log.decoded_samples == log.payload_ok == 500
    wbar_col = ADAPTIVE_COLUMNS.index("wbar_mi")
    assert len(log.rows) >= 3
    assert [row[wbar_col] for row in log.rows] == [3.0] * len(log.rows)
    assert feedback and {fb.mean_delay_us for fb in feedback} == {24_000}


def test_sender_falls_back_to_the_restart_rate_without_feedback():
    """With every feedback datagram lost, the sender restarts from the refill
    rate once per five silent feedback periods, and at no other time."""
    cfg = WireConfig(k=3, n_init=5, avt_ms=100, payload_bytes=30, samples=3000)
    t_tilde_us = monitoring_interval_length(cfg.avt_slots, cfg.n_init) * cfg.slot_ms * 1000
    assert t_tilde_us == 2_000_000
    send_log, _log, span_us = virtual_link(cfg, keep_feedback=lambda i: False)
    assert send_log.samples_sent == 3000
    assert send_log.feedback_applied == 0
    assert send_log.fallbacks == span_us // (5 * t_tilde_us) >= 1
    applied = [row for row in send_log.rows if row[4] == "apply"]
    assert len(applied) == send_log.fallbacks
    assert applied[0][0] >= 5 * t_tilde_us // 1000
    assert applied[0][1] == restart_rate(cfg.n_init, RTT_INIT)
    assert applied[0][2] == cfg.n_init


def test_sender_applies_every_feedback_datagram_that_arrives():
    """With every other feedback datagram lost, the sender applies each one
    that arrives and never falls back to the restart rate."""
    cfg = WireConfig(avt_ms=20, payload_bytes=30, samples=6000, drop_shim=0.1, shim_seed=2)
    fates = []

    def every_other(i):
        fates.append(i % 2 == 0)
        return fates[-1]

    send_log, _log, _span = virtual_link(cfg, keep_feedback=every_other)
    assert send_log.samples_sent == 6000
    assert sum(fates) < len(fates)
    assert send_log.feedback_applied == sum(fates) > 0
    assert send_log.fallbacks == 0


def test_block_length_candidates_stay_within_a_byte_at_large_k():
    """From k = 86 on, 3k passes 255; the candidates stop at 255, and a
    receiver with k = 90 ends an interval in which a sample decoded."""
    assert select_block_length(86, 100, 2.0, 0.9, 2.0, 100) <= 255
    cfg = WireConfig(k=90, n_init=100, avt_ms=20, payload_bytes=900)
    log = feed(cfg, sample_chunks(0, 1_001_000, cfg), until_us=1_030_000)
    assert log.decoded_samples == log.payload_ok == 1
    assert len(log.rows) == 1


def test_receiver_orders_sample_ids_across_the_wrap():
    """Ids from 2**32 - 100 through the wrap keep the sent estimate and pdr."""
    cfg = WireConfig(k=3, n_init=5, avt_ms=20, payload_bytes=30)
    first = 2**32 - 100
    datagrams = []
    for i in range(1000):
        datagrams += sample_chunks((first + i) & 0xFFFFFFFF, 1_000_000 + 2000 * i, cfg)
    log = feed(cfg, datagrams, until_us=1_000_000 + 2000 * 1000)
    assert log.max_sample_id == (first + 999) & 0xFFFFFFFF == 899
    assert log.decoded_samples == log.payload_ok == 1000
    assert log.malformed == log.duplicates == 0
    pdr_col = ADAPTIVE_COLUMNS.index("pdr")
    assert len(log.rows) >= 3
    # a sample due at a boundary may have its first chunk read just before it
    assert min(row[pdr_col] for row in log.rows) > 0.99


def test_serial_diff_orders_across_the_wrap():
    assert serial_diff(0, 2**32 - 1) == 1
    assert serial_diff(2**32 - 1, 0) == -1
    assert serial_diff(5, 3) == 2 and serial_diff(3, 5) == -2
    assert serial_diff(2**31 - 1, 0) == 2**31 - 1
    assert serial_diff(2**31, 0) == -(2**31)


def test_chunk_store_stays_within_the_window_over_a_million_ids():
    """A million ids cross the 2**32 wrap, one a millisecond; after every
    boundary the receiver's table holds at most ID_WINDOW of them.

    Most ids send one of their two chunks, so the receiver holds their
    payloads; every thousandth sends both and decodes.  Every ten-thousandth
    id arrives 500 ids late, after newer ones, and every ten-thousandth an
    id more than a window old sends another chunk.
    """
    cfg = WireConfig(k=2, n_init=2, avt_ms=20, payload_bytes=8)
    core = wire.ReceiverCore(cfg, 0)

    def chunk(sid, idx=0):  # the halves of an 8-byte sample payload; the first is the id
        part = sample_payload(sid, 8)[4:] if idx else sid.to_bytes(4, "big")
        return _CHUNK_HEADER.pack(CHUNK_MAGIC, WIRE_VERSION, sid, 0, idx, 2, 2, 4) + part

    first = 2**32 - 300_000
    late, held, stale = {}, [], 0
    for i in range(1_000_000):
        sid, now = (first + i) & 0xFFFFFFFF, i * 1000
        if core.next_boundary <= now:
            core.poll(now)
            held.append(len(core.table))
        if i % 10_000 == 5_000:
            late[i + 500] = sid
        else:
            core.on_datagram(chunk(sid), now)
        if i % 1000 == 999:
            core.on_datagram(chunk(sid, 1), now)
        if i in late:
            core.on_datagram(chunk(late.pop(i)), now)
        if i % 10_000 == 0 and i > ID_WINDOW:
            core.on_datagram(chunk((sid - ID_WINDOW - 10) & 0xFFFFFFFF, 1), now)
            stale += 1
    core.poll(core.next_boundary)
    log = core.log
    assert len(held) > 100 and max(held) <= ID_WINDOW
    assert log.decoded_samples == log.payload_ok == 1000
    assert log.chunks_received == 1_000_000 + 1000 + stale
    assert log.duplicates == log.malformed == 0
    assert log.max_sample_id == sid and len(core.table) == ID_WINDOW
    assert sid in core.table and (sid - ID_WINDOW) & 0xFFFFFFFF not in core.table


def test_chunk_store_prune_drops_late_stragglers():
    """An id that arrived late, behind a newer one, leaves the table once a window old.

    Two ids of the oldest window arrive after the first id of the next, so
    at the boundary an id still in the window sits before them in the table.
    """
    cfg = WireConfig(k=1, n_init=1, payload_bytes=4)
    core = wire.ReceiverCore(cfg, 0)
    late = [ID_WINDOW - 4, ID_WINDOW - 3]
    order = [sid for sid in range(ID_WINDOW) if sid not in late]
    order += [ID_WINDOW, *late, *range(ID_WINDOW + 1, 2 * ID_WINDOW)]
    for sid in order:
        core.on_datagram(_CHUNK_HEADER.pack(CHUNK_MAGIC, WIRE_VERSION, sid, 0, 0, 1, 1, 4) + sid.to_bytes(4, "big"), 0)
    assert len(core.table) == 2 * ID_WINDOW
    core.poll(core.next_boundary)
    assert sorted(core.table) == list(range(ID_WINDOW, 2 * ID_WINDOW))
    assert core.log.decoded_samples == core.log.payload_ok == 2 * ID_WINDOW


def test_receiver_never_decodes_a_pruned_sample_again():
    """Chunks of an id a window behind the newest count as received and decode nothing."""
    cfg = WireConfig(k=3, n_init=5, avt_ms=20, payload_bytes=30)
    datagrams = sample_chunks(0, 1_001_000, cfg, indices=range(3))
    datagrams += sample_chunks(ID_WINDOW + 5, 1_002_000, cfg, indices=range(3))
    # after the first interval boundary (400 ms), every chunk of sample 0 again
    datagrams += sample_chunks(0, 1_500_000, cfg)
    log = feed(cfg, datagrams, until_us=1_600_000)
    assert len(log.rows) == 1
    assert log.decoded_samples == log.payload_ok == 2
    assert log.chunks_received == 3 + 3 + 5
    assert log.duplicates == 0
    assert log.max_sample_id == ID_WINDOW + 5


def test_receiver_checks_boundaries_between_queued_datagrams(monkeypatch):
    """Draining a full socket still ends an interval between two datagrams.

    The loop's own timing: 200 datagrams are queued at once and each read
    costs 4 ms of virtual time, so the interval ending at 400 ms must end
    after the 100th read.
    """
    cfg = WireConfig(k=3, n_init=5, avt_ms=20, payload_bytes=30)
    queue = deque(data for sid in range(40) for _, data in sample_chunks(sid, 1_000_000, cfg))
    clock, sent = [1_000_000], []

    def recvfrom(size):
        if not queue:
            raise BlockingIOError
        clock[0] += 4000
        return queue.popleft(), ("127.0.0.1", 9)

    def fake_select(rlist, wlist, xlist, timeout):
        if queue:
            return rlist, [], []
        clock[0] += int(round(timeout * 1e6))
        return [], [], []

    sock = SimpleNamespace(setblocking=lambda flag: None, recvfrom=recvfrom,
                           sendto=lambda data, addr: sent.append((clock[0], len(queue))))
    monkeypatch.setattr(wire, "now_us", lambda: clock[0])
    monkeypatch.setattr(wire, "select", SimpleNamespace(select=fake_select))
    until = 1_000_000 + 200 * 4000 + 1000
    log = run_receiver(cfg, stop=SimpleNamespace(is_set=lambda: clock[0] >= until), sock=sock)
    assert log.decoded_samples == log.payload_ok == 40
    assert log.chunks_received == 200
    assert log.rows
    assert sent[0] == (1_400_000, 100)


def test_chunk_from_a_neighbouring_sample_fails_the_payload_check():
    """The sample with id 7 decodes from its data chunks 0 and 2 and from
    sample 8's chunk 1: payload_ok stays 0."""
    cfg = WireConfig(k=3, n_init=5, avt_ms=20, payload_bytes=300)
    own = sample_chunks(7, 1_001_000, cfg, indices=(0, 2))
    neighbour = encode_payload(sample_payload(8, cfg.payload_bytes), cfg.k, cfg.n_init)[1]
    swapped = (1_001_000, ChunkPacket(7, 1_001_000, 1, cfg.k, cfg.n_init, neighbour).encode())
    log = feed(cfg, [*own, swapped], until_us=1_100_000)
    assert log.decoded_samples == 1
    assert log.payload_ok == 0


def _mangle(data, how, r, k):
    if how == "flip":
        bit = r % (8 * len(data))
        return data[: bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1 :]
    if how == "cut":
        return data[: r % len(data)]
    if how == "k":  # a well-formed chunk of another code
        return data[:18] + bytes([k + 1]) + data[19:]
    return data


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 14), st.sampled_from(["copy", "flip", "cut", "k"]),
                          st.integers(0, 2**16)), max_size=40))
def test_receiver_counts_every_datagram_exactly_once(ops):
    """Valid chunks, duplicates, bit flips, truncations and chunks of another
    k: each datagram is received, a duplicate or malformed, exactly one of them."""
    cfg = WireConfig(k=3, n_init=5, avt_ms=20, payload_bytes=30)
    valid = [data for sid in range(3) for _, data in sample_chunks(sid, 1_000_000, cfg)]
    datagrams = [(1_000_000 + 50_000 * i, _mangle(valid[which], how, r, cfg.k))
                 for i, (which, how, r) in enumerate(ops)]
    log = feed(cfg, datagrams, until_us=1_000_000 + 50_000 * len(ops) + 1)
    assert log.chunks_received + log.duplicates + log.malformed == len(ops)
    assert log.payload_ok <= log.decoded_samples


# --------------------------------------------------------------------------
# The sample payload and the sender's datagrams


def test_sample_payload_is_the_same_in_a_fresh_interpreter():
    cases = [(0, 100), (1, 32768), (2**32 - 1, 4096), (123456, 3), (99, 5)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(wire.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import hashlib, sys; from agefec.wire import sample_payload\n"
        f"for sid, nbytes in {cases!r}:\n"
        "    print(hashlib.sha256(sample_payload(sid, nbytes)).hexdigest())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [hashlib.sha256(sample_payload(s, b)).hexdigest() for s, b in cases]


def test_sample_payloads_of_distinct_ids_differ():
    for nbytes in (4, 5, 64, 4096, 32768):
        payloads = {sample_payload(sid, nbytes) for sid in range(300)}
        payloads |= {sample_payload(2**32 - 1, nbytes), sample_payload(0, nbytes)}
        assert len(payloads) == 301
        assert all(len(p) == nbytes for p in payloads)
    assert sample_payload(2**32 - 1, 64) != sample_payload(0, 64)
    # beyond the leading id, neighbours share no chunk of a k = 8 split
    for sid in range(50):
        a, b = sample_payload(sid, 32768), sample_payload(sid + 1, 32768)
        assert all(a[i : i + 4096] != b[i : i + 4096] for i in range(0, 32768, 4096))


def test_sender_datagrams_equal_chunk_packet_encode():
    """Whatever k, n and size, each datagram is ChunkPacket(...).encode() of its fields."""
    rng = random.Random(12)
    for _ in range(4):
        k = rng.randint(1, 12)
        n = rng.randint(k, 24)
        nbytes = rng.randint(1, 3000)
        samples = rng.randint(1, 4)
        recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv.bind(("127.0.0.1", 0))
        recv.settimeout(2.0)
        try:
            cfg = WireConfig(dest=recv.getsockname(), k=k, n_init=n, payload_bytes=nbytes,
                             samples=samples, fixed_rate=float(n))
            log = run_sender(cfg)
            assert log.chunks_sent == samples * n
            for sid in range(samples):
                parts = encode_payload(sample_payload(sid, nbytes), k, n)
                for idx in range(n):
                    data = recv.recv(65535)
                    gen = ChunkPacket.decode(data).gen_timestamp_us
                    assert data == ChunkPacket(sid, gen, idx, k, n, parts[idx]).encode()
        finally:
            recv.close()


def test_receiver_decodes_chunks_queued_before_it_reads():
    """A socket full of several samples' chunks drains, and the interval still ends."""
    cfg = WireConfig(k=3, n_init=5, avt_ms=10, payload_bytes=900)
    recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv_sock.bind(("127.0.0.1", 0))
    send_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        gen = wire.now_us()
        for sid in range(12):
            parts = encode_payload(sample_payload(sid, cfg.payload_bytes), cfg.k, cfg.n_init)
            for idx, part in enumerate(parts):
                send_sock.sendto(ChunkPacket(sid, gen, idx, cfg.k, cfg.n_init, part).encode(),
                                 recv_sock.getsockname())
        deadline = time.monotonic() + 0.5  # the first interval ends after 200 ms
        log = run_receiver(cfg, stop=SimpleNamespace(is_set=lambda: time.monotonic() >= deadline),
                           sock=recv_sock)
    finally:
        send_sock.close()
        recv_sock.close()
    assert log.decoded_samples == log.payload_ok == 12
    assert log.chunks_received == 60
    assert log.malformed == log.duplicates == 0
    assert log.rows
    assert log.rows[0][ADAPTIVE_COLUMNS.index("pdr")] == 1.0


# --------------------------------------------------------------------------
# One bad datagram must not stop an endpoint


@pytest.mark.parametrize("idx, k, n", [(7, 3, 5), (0, 6, 5), (0, 0, 5)])
def test_chunk_decode_rejects_fields_out_of_range(idx, k, n):
    buf = _CHUNK_HEADER.pack(CHUNK_MAGIC, WIRE_VERSION, 1, 2, idx, k, n, 3) + b"abc"
    with pytest.raises(FieldRangeError):
        ChunkPacket.decode(buf)
    assert issubclass(FieldRangeError, WireDecodeError)


def test_receiver_counts_chunks_with_bad_fields_as_malformed():
    cfg = WireConfig(k=3, n_init=5, payload_bytes=90)
    recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv_sock.bind(("127.0.0.1", 0))
    send_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for idx, k, n in [(7, 3, 5), (0, 6, 5), (0, 0, 5)]:
            bad = _CHUNK_HEADER.pack(CHUNK_MAGIC, WIRE_VERSION, 0, 1, idx, k, n, 3) + b"abc"
            send_sock.sendto(bad, recv_sock.getsockname())
        parts = encode_payload(sample_payload(0, cfg.payload_bytes), 3, 5)
        for idx in range(3):
            send_sock.sendto(ChunkPacket(0, 1, idx, 3, 5, parts[idx]).encode(), recv_sock.getsockname())
        deadline = time.monotonic() + 5.0
        log = run_receiver(cfg, stop=SimpleNamespace(is_set=lambda: time.monotonic() >= deadline),
                           sock=recv_sock, max_samples=1)
    finally:
        send_sock.close()
        recv_sock.close()
    assert log.malformed == 3
    assert log.decoded_samples == log.payload_ok == 1


def test_sender_ignores_feedback_with_n_below_k():
    """Feedback commanding n < k is counted and dropped; valid feedback still applies."""
    fake_recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    fake_recv.bind(("127.0.0.1", 0))
    fake_recv.settimeout(5.0)
    stop = threading.Event()
    cfg = WireConfig(dest=fake_recv.getsockname(), k=3, n_init=5, avt_ms=100, payload_bytes=30)
    result = {}

    def send_main():
        result["log"] = run_sender(cfg, stop=stop)

    thread = threading.Thread(target=send_main)
    thread.start()
    try:
        _, sender_addr = fake_recv.recvfrom(65535)
        for n in (2, 0):
            fake_recv.sendto(FeedbackPacket.from_values(1, 1.0, n, 2, 0.0, 1.0, 2.0).encode(), sender_addr)
            time.sleep(0.1)  # past the next sample boundary
        fake_recv.sendto(FeedbackPacket.from_values(2, 0.25, 4, 25, 0.0, 1.0, 2.0).encode(), sender_addr)
        time.sleep(0.3)
    finally:
        stop.set()
        thread.join(timeout=3.0)
        fake_recv.close()
    assert not thread.is_alive()
    log = result["log"]
    assert log.malformed == 2
    assert log.feedback_applied == 1
    assert (log.final_n, log.final_ts_ms) == (4, 25)


def test_sender_applies_only_feedback_newer_than_the_last_applied():
    """Reordered or repeated feedback leaves the newest parameters in force.

    Intervals are ordered as 32-bit serial numbers, so interval 0 after
    2**32 - 1 is newer.  Stale feedback does not hold off the fallback.
    """
    cfg = WireConfig(k=3, n_init=5, avt_ms=100, payload_bytes=30)
    sender = wire.SenderCore(cfg, 0)
    log = sender.log
    for mi, sigma, n, ts_ms in ((5, 0.25, 4, 25), (4, 0.5, 9, 18), (5, 0.5, 9, 18)):
        assert sender.on_datagram(FeedbackPacket.from_values(mi, sigma, n, ts_ms, 0.0, 1.0, 2.0).encode(), 0)
    sender.poll(0)  # the sample boundary swaps the staged parameters in
    assert (log.final_sigma, log.final_n, log.final_ts_ms) == (0.25, 4, 25)
    assert (log.feedback_applied, log.stale_feedback) == (1, 2)
    # Stale feedback is no news: five silent feedback periods still bring the fallback.
    late = 5 * monitoring_interval_length(cfg.avt_slots, 4) * cfg.slot_ms * 1000 + 1
    sender.on_datagram(FeedbackPacket.from_values(4, 0.5, 9, 18, 0.0, 1.0, 2.0).encode(), late)
    sender.poll(late)
    assert (log.stale_feedback, log.fallbacks) == (3, 1)
    wrapping = wire.SenderCore(cfg, 0)
    for mi in (2**32 - 1, 0):
        wrapping.on_datagram(FeedbackPacket.from_values(mi, 1.0, 6, 6, 0.0, 1.0, 2.0).encode(), 0)
    assert (wrapping.log.feedback_applied, wrapping.log.stale_feedback) == (2, 0)


def test_sender_follows_a_restarted_receiver_after_the_fallback():
    """A restarted receiver numbers its feedback from 1 again.  The sender
    counts that feedback as stale until the silence fallback; the first
    datagram after the fallback applies whatever its index, and so do the
    newer ones after it."""
    cfg = WireConfig(k=3, n_init=5, avt_ms=100, payload_bytes=30)
    sender = wire.SenderCore(cfg, 0)
    log = sender.log
    for mi in range(1, 41):  # the first receiver, one datagram per 100 ms
        now = mi * 100_000
        sender.poll(now)
        assert sender.on_datagram(FeedbackPacket.from_values(mi, 0.5, 6, 12, 0.0, 1.0, 2.0).encode(), now)
    sender.poll(now)
    assert (log.final_sigma, log.final_n, log.feedback_applied) == (0.5, 6, 40)
    silence_us = 5 * monitoring_interval_length(cfg.avt_slots, 6) * cfg.slot_ms * 1000
    last_applied_us = now
    applied = []  # the restarted receiver's intervals that applied
    for mi in range(1, 41):  # the restarted receiver, one datagram per 250 ms
        now = last_applied_us + mi * 250_000
        sender.poll(now)
        before = log.feedback_applied
        sender.on_datagram(FeedbackPacket.from_values(mi, 0.25, 4, 25, 0.0, 1.0, 2.0).encode(), now)
        if log.feedback_applied > before:
            applied.append(mi)
            assert sender.pending == (0.25, 4, 25)
    assert applied, "the restarted receiver's feedback never applied"
    first = applied[0]
    assert log.fallbacks == 1
    assert (first - 1) * 250_000 <= silence_us < first * 250_000
    assert applied == list(range(first, 41))
    assert (log.stale_feedback, log.feedback_applied) == (first - 1, 40 + len(applied))
    sender.poll(now + 25_000)
    assert (log.final_sigma, log.final_n, log.final_ts_ms) == (0.25, 4, 25)


class RefusingSocket(socket.socket):
    """A UDP socket whose fifth sendto fails with ENOBUFS."""

    sends = 0

    def sendto(self, data, address):
        self.sends += 1
        if self.sends == 5:
            raise OSError(errno.ENOBUFS, os.strerror(errno.ENOBUFS))
        return super().sendto(data, address)


@pytest.mark.parametrize(
    "delay_ms, stop_after_s, sent, errors", [(0, None, 19, 1), (5, None, 19, 1), (1000, 0.1, 0, 0)]
)
def test_sender_counts_only_the_chunks_its_socket_accepts(delay_ms, stop_after_s, sent, errors):
    """A refused send is counted and the sender carries on, with a delay shim or without.

    A chunk the delay shim still holds when the sender stops was never sent.
    """
    recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv.bind(("127.0.0.1", 0))
    recv.settimeout(0.3)
    sock = RefusingSocket(socket.AF_INET, socket.SOCK_DGRAM)
    stop = None
    if stop_after_s:
        deadline = time.monotonic() + stop_after_s
        stop = SimpleNamespace(is_set=lambda: time.monotonic() >= deadline)
    arrived = 0
    try:
        cfg = WireConfig(dest=recv.getsockname(), k=3, n_init=5, payload_bytes=30, samples=4,
                         fixed_rate=5.0, delay_shim_ms=delay_ms)
        log = run_sender(cfg, stop=stop, sock=sock)
        with contextlib.suppress(TimeoutError):
            while recv.recv(65535):
                arrived += 1
    finally:
        sock.close()
        recv.close()
    assert (log.samples_sent, log.chunks_sent, log.socket_errors) == (4, sent, errors)
    assert arrived == log.chunks_sent
