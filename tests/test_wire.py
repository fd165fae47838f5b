"""Datagram formats and the UDP endpoints on loopback."""

import math
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from agefec import wire
from agefec.adaptive_sampling import ADAPTIVE_COLUMNS
from agefec.cli import main
from agefec.core import ParameterError
from agefec.wire import (
    CHUNK_MAGIC,
    DELAY_INF_US,
    FEEDBACK_MAGIC,
    WIRE_VERSION,
    BadMagicError,
    ChunkPacket,
    FeedbackPacket,
    TruncatedPacketError,
    VersionMismatchError,
    WireConfig,
    WireDecodeError,
    decode_packet,
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


def test_decode_packet_dispatch():
    chunk = make_chunk()
    fb = FeedbackPacket.from_values(1, 1.0, 4, 4, 0.0, 1.0, 2.0)
    assert decode_packet(chunk.encode()) == chunk
    assert decode_packet(fb.encode()) == fb
    with pytest.raises(TruncatedPacketError):
        decode_packet(b"A3")
    with pytest.raises(BadMagicError):
        decode_packet(b"ZZZZ....")


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
        assert isinstance(decode_packet(data), ChunkPacket)
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
    recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv_sock.bind(("127.0.0.1", 0))
    stop = threading.Event()
    samples = 2000
    cfg = WireConfig(
        dest=recv_sock.getsockname(),
        k=8,
        n_init=16,
        avt_ms=40,
        payload_bytes=64,
        samples=samples,
        fixed_rate=16.0,
        drop_shim=0.1,
        shim_seed=5,
    )
    result = {}

    def recv_main():
        result["log"] = run_receiver(cfg, stop=stop, sock=recv_sock, max_samples=samples)

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
    pass_ratio = send_log.chunks_sent / (send_log.chunks_sent + send_log.shim_dropped)
    rows = result["log"].rows
    pdr_col = ADAPTIVE_COLUMNS.index("pdr")
    assert len(rows) >= 3
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
