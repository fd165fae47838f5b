"""UDP reference transport: chunk datagrams out, rate feedback back.

The receiver owns the control loop.  Every monitoring interval it scores its
decode log, runs the adaptive controller, and mails the resulting rate, block
length, and sampling interval to the sender, which applies them at the next
sample boundary.  One slot is one millisecond unless configured otherwise.

Loss and extra latency for tests come from sender-side shims, so loopback
runs exercise the full protocol without touching the network stack.
"""

from __future__ import annotations

import heapq
import math
import random
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .adaptive_sampling import (
    ADAPTIVE_COLUMNS,
    AdaptiveController,
    AdaptiveSamplingState,
    monitoring_interval_length,
    restart_rate,
    sampling_interval,
)
from .coding import decode_payload, encode_payload
from .core import CodingError, ParameterError, ReceiverChunkStore, serial_diff

WIRE_VERSION = 1
CHUNK_MAGIC = b"A3LF"
FEEDBACK_MAGIC = b"A3LB"
DELAY_INF_US = 2**64 - 1
# Round-trip time, in slots, that both endpoints assume before any feedback.
RTT_INIT = 2.0
# The receiver keeps state only for sample ids fewer than this many behind
# the newest id; chunks of older samples are counted and otherwise ignored.
ID_WINDOW = 1 << 15

_CHUNK_HEADER = struct.Struct(">4sBIQBBBH")
_FEEDBACK = struct.Struct(">4sBIIBIHHQ")


class WireError(Exception):
    """Base class for transport failures."""


class WireDecodeError(WireError):
    """A datagram could not be parsed."""


class TruncatedPacketError(WireDecodeError):
    """Buffer shorter than the declared layout."""


class BadMagicError(WireDecodeError):
    """Leading bytes do not name a known packet type."""


class VersionMismatchError(WireDecodeError):
    """Packet version differs from this implementation's."""


class FieldRangeError(WireDecodeError):
    """A header field lies outside its valid range."""


def _check_u(value: int, bits: int, name: str) -> int:
    if not 0 <= value < (1 << bits):
        raise ParameterError(f"{name} must fit in {bits} bits, got {value}")
    return value


@dataclass(frozen=True)
class ChunkPacket:
    """One coded chunk with enough context to decode without prior state."""

    sample_id: int
    gen_timestamp_us: int
    chunk_index: int
    k: int
    n: int
    payload: bytes

    def __post_init__(self) -> None:
        _check_u(self.sample_id, 32, "sample_id")
        _check_u(self.gen_timestamp_us, 64, "gen_timestamp_us")
        _check_u(self.chunk_index, 8, "chunk_index")
        _check_u(self.k, 8, "k")
        _check_u(self.n, 8, "n")
        _check_u(len(self.payload), 16, "payload length")
        if self.k < 1 or self.k > self.n:
            raise ParameterError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if self.chunk_index >= self.n:
            raise ParameterError(
                f"chunk_index {self.chunk_index} out of range for n={self.n}"
            )

    def encode(self) -> bytes:
        return (
            _CHUNK_HEADER.pack(
                CHUNK_MAGIC,
                WIRE_VERSION,
                self.sample_id,
                self.gen_timestamp_us,
                self.chunk_index,
                self.k,
                self.n,
                len(self.payload),
            )
            + self.payload
        )

    @classmethod
    def decode(cls, buf: bytes) -> "ChunkPacket":
        if len(buf) < _CHUNK_HEADER.size:
            raise TruncatedPacketError(
                f"chunk packet needs {_CHUNK_HEADER.size} header bytes, got {len(buf)}"
            )
        magic, version, sample_id, gen_us, idx, k, n, plen = _CHUNK_HEADER.unpack_from(
            buf
        )
        if magic != CHUNK_MAGIC:
            raise BadMagicError(f"unknown magic {magic!r}")
        if version != WIRE_VERSION:
            raise VersionMismatchError(f"version {version}, expected {WIRE_VERSION}")
        end = _CHUNK_HEADER.size + plen
        if len(buf) < end:
            raise TruncatedPacketError(
                f"chunk payload declares {plen} bytes, {len(buf) - _CHUNK_HEADER.size} present"
            )
        if len(buf) > end:
            raise WireDecodeError(f"{len(buf) - end} trailing bytes after payload")
        # The struct layout bounds every field's width; these are the
        # remaining checks of __post_init__, which this path skips.
        if k < 1 or k > n:
            raise FieldRangeError(f"need 1 <= k <= n, got k={k} n={n}")
        if idx >= n:
            raise FieldRangeError(f"chunk_index {idx} out of range for n={n}")
        pkt = cls.__new__(cls)
        pkt.__dict__.update(
            sample_id=sample_id,
            gen_timestamp_us=gen_us,
            chunk_index=idx,
            k=k,
            n=n,
            payload=buf[_CHUNK_HEADER.size : end],
        )
        return pkt


@dataclass(frozen=True)
class FeedbackPacket:
    """Receiver-computed transmission parameters plus the stats behind them."""

    mi_index: int
    rate_milli: int  # chunks per slot x 1000
    new_n: int
    new_ts_ms: int
    av_ratio_milli: int
    pdr_milli: int
    mean_delay_us: int  # all-ones sentinel means nothing arrived

    def __post_init__(self) -> None:
        _check_u(self.mi_index, 32, "mi_index")
        _check_u(self.rate_milli, 32, "rate_milli")
        _check_u(self.new_n, 8, "new_n")
        _check_u(self.new_ts_ms, 32, "new_ts_ms")
        _check_u(self.av_ratio_milli, 16, "av_ratio_milli")
        _check_u(self.pdr_milli, 16, "pdr_milli")
        _check_u(self.mean_delay_us, 64, "mean_delay_us")

    @classmethod
    def from_values(
        cls,
        mi_index: int,
        sigma: float,
        n: int,
        ts_ms: int,
        av_ratio: float,
        pdr: float,
        mean_delay_ms: float,
    ) -> "FeedbackPacket":
        if math.isinf(mean_delay_ms):
            delay_us = DELAY_INF_US
        else:
            delay_us = min(int(round(mean_delay_ms * 1000.0)), DELAY_INF_US - 1)
        return cls(
            mi_index=mi_index & 0xFFFFFFFF,
            rate_milli=min(int(round(sigma * 1000.0)), 2**32 - 1),
            new_n=n,
            new_ts_ms=min(ts_ms, 2**32 - 1),
            av_ratio_milli=min(int(round(av_ratio * 1000.0)), 65535),
            pdr_milli=min(int(round(pdr * 1000.0)), 65535),
            mean_delay_us=delay_us,
        )

    @property
    def sigma(self) -> float:
        return self.rate_milli / 1000.0

    @property
    def mean_delay_ms(self) -> float:
        if self.mean_delay_us == DELAY_INF_US:
            return math.inf
        return self.mean_delay_us / 1000.0

    def encode(self) -> bytes:
        return _FEEDBACK.pack(
            FEEDBACK_MAGIC,
            WIRE_VERSION,
            self.mi_index,
            self.rate_milli,
            self.new_n,
            self.new_ts_ms,
            self.av_ratio_milli,
            self.pdr_milli,
            self.mean_delay_us,
        )

    @classmethod
    def decode(cls, buf: bytes) -> "FeedbackPacket":
        if len(buf) < _FEEDBACK.size:
            raise TruncatedPacketError(
                f"feedback packet needs {_FEEDBACK.size} bytes, got {len(buf)}"
            )
        if len(buf) > _FEEDBACK.size:
            raise WireDecodeError(f"{len(buf) - _FEEDBACK.size} trailing bytes")
        magic, version, mi, rate, n, ts, av, pdr, delay = _FEEDBACK.unpack(buf)
        if magic != FEEDBACK_MAGIC:
            raise BadMagicError(f"unknown magic {magic!r}")
        if version != WIRE_VERSION:
            raise VersionMismatchError(f"version {version}, expected {WIRE_VERSION}")
        return cls(mi, rate, n, ts, av, pdr, delay)


def decode_packet(buf: bytes):
    """Dispatch on the magic; returns a ChunkPacket or FeedbackPacket."""
    if len(buf) < 4:
        raise TruncatedPacketError(f"datagram of {len(buf)} bytes has no magic")
    if buf[:4] == CHUNK_MAGIC:
        return ChunkPacket.decode(buf)
    if buf[:4] == FEEDBACK_MAGIC:
        return FeedbackPacket.decode(buf)
    raise BadMagicError(f"unknown magic {buf[:4]!r}")


def sample_payload(sample_id: int, nbytes: int) -> bytes:
    """Deterministic per-sample payload so any copy can verify a decode.

    The id's four bytes come first, so distinct ids never share a payload of
    4 bytes or more.  The rest is a window of one random block per size,
    starting at an offset that moves with the id, so the chunks of
    neighbouring samples differ too.
    """
    head = sample_id.to_bytes(4, "big")
    if nbytes <= 4:
        return head[:nbytes]
    off = sample_id * 2654435761 % (nbytes + 1)
    return head + _payload_block(nbytes)[off : off + nbytes - 4]


@lru_cache(maxsize=8)
def _payload_block(nbytes: int) -> bytes:
    return random.Random(f"payload-block/{nbytes}").randbytes(2 * nbytes)


def now_us() -> int:
    return time.monotonic_ns() // 1000


@dataclass
class WireConfig:
    """Shared knobs for both endpoints; one slot is slot_ms milliseconds."""

    dest: tuple[str, int] | None = None
    listen: tuple[str, int] | None = None
    k: int = 3
    n_init: int = 5
    avt_ms: int = 100
    slot_ms: int = 1
    payload_bytes: int = 1024
    samples: int = 0  # sender stops after this many; 0 means run until stopped
    fixed_rate: float | None = None  # chunks per slot; None follows feedback
    drop_shim: float = 0.0  # synthetic egress loss probability
    delay_shim_ms: float = 0.0  # synthetic egress latency
    relative_delay: bool = False  # subtract min observed delay (unsynced clocks)
    shim_seed: int = 0
    log_path: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n_init <= 255:
            raise ParameterError(f"need 1 <= k <= n_init <= 255, got k={self.k} n_init={self.n_init}")
        if self.slot_ms < 1:
            raise ParameterError(f"slot_ms must be >= 1, got {self.slot_ms}")
        if self.avt_ms < self.slot_ms:
            raise ParameterError(
                f"avt_ms {self.avt_ms} must be >= slot_ms {self.slot_ms}"
            )
        if not 0.0 <= self.drop_shim < 1.0:
            raise ParameterError(f"drop_shim must lie in [0, 1), got {self.drop_shim}")
        if self.delay_shim_ms < 0.0:
            raise ParameterError(f"delay_shim_ms must be >= 0, got {self.delay_shim_ms}")
        if self.fixed_rate is not None and self.fixed_rate <= 0:
            raise ParameterError(f"fixed_rate must be > 0, got {self.fixed_rate}")
        if not 0 <= -(-self.payload_bytes // self.k) < 1 << 16:
            raise ParameterError(
                f"payload_bytes {self.payload_bytes} must split into chunks of"
                f" 0 to 65535 bytes at k={self.k}"
            )

    @property
    def avt_slots(self) -> int:
        return max(1, round(self.avt_ms / self.slot_ms))


@dataclass
class SenderLog:
    samples_sent: int = 0
    chunks_sent: int = 0
    shim_dropped: int = 0
    stale_skipped: int = 0
    feedback_applied: int = 0
    malformed: int = 0  # feedback that failed to parse or commanded n < k
    fallbacks: int = 0
    socket_errors: int = 0
    final_sigma: float = 0.0
    final_n: int = 0
    final_ts_ms: int = 0
    rows: list[tuple] = field(default_factory=list)  # (ms, sigma, n, ts_ms, source)


@dataclass
class ReceiverLog:
    chunks_received: int = 0
    duplicates: int = 0
    malformed: int = 0
    decoded_samples: int = 0
    payload_ok: int = 0
    feedback_sent: int = 0
    mean_delay_ms: float = math.inf
    min_delay_ms: float = math.inf
    max_sample_id: int = -1
    schema: str = "adaptive-sampling-interval/1"
    columns: tuple[str, ...] = ADAPTIVE_COLUMNS
    rows: list[tuple] = field(default_factory=list)


class _Shim:
    """Sender-side egress tap: drops a fraction, delays the rest."""

    def __init__(self, config: WireConfig, sock: socket.socket) -> None:
        self.sock = sock
        self.drop = config.drop_shim
        self.delay_us = int(config.delay_shim_ms * 1000)
        self.rng = random.Random(f"{config.shim_seed}/shim")
        self.heap: list[tuple[int, int, bytes, tuple]] = []
        self._seq = 0
        self.dropped = 0

    def send(self, data: bytes, addr, now: int) -> bool:
        if self.drop > 0.0 and self.rng.random() < self.drop:
            self.dropped += 1
            return False
        if self.delay_us <= 0:
            self.sock.sendto(data, addr)
            return True
        self._seq += 1
        heapq.heappush(self.heap, (now + self.delay_us, self._seq, data, addr))
        return True

    def flush(self, now: int) -> None:
        while self.heap and self.heap[0][0] <= now:
            _, _, data, addr = heapq.heappop(self.heap)
            self.sock.sendto(data, addr)

    def next_due_us(self) -> int | None:
        return self.heap[0][0] if self.heap else None


def run_sender(
    config: WireConfig,
    stop: threading.Event | None = None,
    sock: socket.socket | None = None,
) -> SenderLog:
    """Pace samples to the destination, applying feedback as it arrives.

    One loop interleaves sample emission, shim flushing, and feedback
    polling.  New parameters from feedback or the missing-feedback fallback
    are staged and swapped in atomically at the next sample boundary.
    """
    if config.dest is None:
        raise ParameterError("sender needs a destination address")
    log = SenderLog()
    own_sock = sock is None
    if own_sock:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("0.0.0.0", 0))
    sock.setblocking(False)
    shim = _Shim(config, sock)

    k = config.k
    avt = config.avt_slots
    if config.fixed_rate is not None:
        sigma = config.fixed_rate
        n = config.n_init
    else:
        init = AdaptiveSamplingState.initial(k, config.n_init, avt, rtt_init=RTT_INIT)
        sigma = init.sigma
        n = init.n
    ts_ms = sampling_interval(n, sigma) * config.slot_ms
    pending: tuple[float, int, int] | None = None  # (sigma, n, ts_ms)
    header = _CHUNK_HEADER.pack

    try:
        start = now_us()
        next_sample = start
        last_feedback = start
        sample_id = 0
        while not (stop is not None and stop.is_set()):
            now = now_us()
            # shim packets leave first so a due batch never waits behind
            # this iteration's encode work
            shim.flush(now)

            if config.fixed_rate is None and pending is None:
                # Silence beyond five feedback periods: assume the pipe
                # drained and restart from the bandwidth estimate.
                t_tilde_ms = monitoring_interval_length(avt, n) * config.slot_ms
                if now - last_feedback > 5 * t_tilde_ms * 1000:
                    refill = restart_rate(n, RTT_INIT)
                    pending = (refill, n, sampling_interval(n, refill) * config.slot_ms)
                    last_feedback = now
                    log.fallbacks += 1

            if now >= next_sample:
                if pending is not None:
                    sigma, n, ts_ms = pending
                    ts_ms = max(1, int(ts_ms))
                    pending = None
                    log.rows.append(((now - start) // 1000, sigma, n, ts_ms, "apply"))
                # The sample nominally exists since its scheduled slot; if the
                # loop woke up so late that it already breaches the threshold,
                # sending it cannot help the receiver.
                gen = next_sample
                if now - gen > config.avt_ms * 1000:
                    log.stale_skipped += 1
                else:
                    payload = sample_payload(sample_id, config.payload_bytes)
                    try:
                        for idx, part in enumerate(encode_payload(payload, k, n)):
                            # ChunkPacket(...).encode() without the object: the
                            # config and feedback checks keep every field in range.
                            data = header(CHUNK_MAGIC, WIRE_VERSION, sample_id, gen, idx, k, n, len(part))
                            if shim.send(data + part, config.dest, now):
                                log.chunks_sent += 1
                    except OSError:
                        log.socket_errors += 1
                    log.samples_sent += 1
                    sample_id = (sample_id + 1) & 0xFFFFFFFF
                next_sample += ts_ms * 1000
                if next_sample < now:
                    next_sample = now + ts_ms * 1000
                if config.samples and log.samples_sent >= config.samples:
                    break
                # Encoding took time: wait from now, not from the loop's top,
                # or a late sender sleeps a whole slot after every sample.
                now = now_us()

            wait_us = next_sample - now
            due = shim.next_due_us()
            if due is not None:
                wait_us = min(wait_us, due - now)
            wait_us = max(0, min(wait_us, 20_000))
            readable, _, _ = select.select([sock], [], [], wait_us / 1e6)
            if readable:
                try:
                    data, _addr = sock.recvfrom(65535)
                except OSError:
                    log.socket_errors += 1
                    continue
                try:
                    fb = FeedbackPacket.decode(data)
                except WireDecodeError:
                    log.malformed += 1
                    continue
                if fb.new_n < k:  # the field caps n at 255
                    log.malformed += 1
                    continue
                last_feedback = now_us()
                if config.fixed_rate is None:
                    pending = (fb.sigma, fb.new_n, fb.new_ts_ms)
                    log.feedback_applied += 1
                    log.rows.append(
                        ((last_feedback - start) // 1000, fb.sigma, fb.new_n, fb.new_ts_ms, "feedback")
                    )

        # Let the delay shim drain so the tail of the run still arrives.
        while shim.heap and not (stop is not None and stop.is_set()):
            due = shim.next_due_us()
            now = now_us()
            if due > now:
                time.sleep(min((due - now) / 1e6, 0.05))
            shim.flush(now_us())
    finally:
        log.shim_dropped = shim.dropped
        log.final_sigma = sigma
        log.final_n = n
        log.final_ts_ms = ts_ms
        if own_sock:
            sock.close()
    return log


def run_receiver(
    config: WireConfig,
    stop: threading.Event | None = None,
    sock: socket.socket | None = None,
    max_samples: int = 0,
) -> ReceiverLog:
    """Collect chunks, decode, score intervals, and mail feedback.

    Each interval goes through the `AdaptiveController.step` the simulator
    runs; time is wall-clock milliseconds bucketed into slots.  With max_samples > 0 the
    loop ends once that many distinct samples have decoded (test hook).

    After `select` reports the socket readable, the loop reads datagrams
    until the socket is empty, one per pass, so interval boundaries and
    `stop` are still checked between any two datagrams.  Sample ids are
    ordered as 32-bit serial numbers, and at each boundary the state of
    ids `ID_WINDOW` or more behind the newest one is dropped.
    """
    log = ReceiverLog()
    own_sock = sock is None
    if own_sock:
        if config.listen is None:
            raise ParameterError("receiver needs a listen address")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(config.listen)
    sock.setblocking(False)

    k = config.k
    avt = config.avt_slots
    slot_us = config.slot_ms * 1000
    controller = AdaptiveController(
        AdaptiveSamplingState.initial(k, config.n_init, avt, rtt_init=RTT_INIT), k, avt
    )
    log.rows = controller.rows
    store = ReceiverChunkStore(k)
    # Refreshing decodes as (generation slot, decode slot), seeded with a
    # virtual decode that puts the age at the threshold when the run starts.
    decodes = [(-avt, 0)]
    shares: dict[int, dict[int, bytes]] = {}
    sender_addr: tuple | None = None

    start = now_us()
    mi_start_slot = 0
    next_boundary = start + controller.state.t_tilde * slot_us
    ivl_delivered = 0
    ivl_delay_sum = 0.0
    ivl_min_delay = math.inf
    ivl_sent = 0
    total_delay = 0.0
    min_delay_raw = math.inf
    ready = False  # the last read found a datagram, so more may be queued

    try:
        while not (stop is not None and stop.is_set()):
            now = now_us()
            if now >= next_boundary:
                boundary_slot = (now - start) // slot_us
                _raws, _ratios, stats = controller.step(
                    mi_start_slot,
                    mi_start_slot + max(1, boundary_slot - mi_start_slot),
                    [decodes],
                    (avt,),
                    ivl_delivered,
                    (ivl_delay_sum / ivl_delivered) / config.slot_ms if ivl_delivered else math.inf,
                    ivl_min_delay / config.slot_ms,
                    ivl_sent,
                )
                decodes = [decodes[-1]]
                state = controller.state
                if sender_addr is not None:
                    fb = FeedbackPacket.from_values(
                        state.mi & 0xFFFFFFFF,
                        state.sigma,
                        state.n,
                        state.t_s * config.slot_ms,
                        stats.av_ratio,
                        stats.pdr,
                        stats.wbar_mi * config.slot_ms
                        if math.isfinite(stats.wbar_mi)
                        else math.inf,
                    )
                    try:
                        sock.sendto(fb.encode(), sender_addr)
                        log.feedback_sent += 1
                    except OSError:
                        pass
                mi_start_slot = boundary_slot
                next_boundary = now + state.t_tilde * slot_us
                ivl_delivered = 0
                ivl_sent = 0
                ivl_delay_sum = 0.0
                ivl_min_delay = math.inf
                newest = log.max_sample_id
                if newest >= 0:
                    store.prune(newest, ID_WINDOW)
                    shares = {s: b for s, b in shares.items() if serial_diff(newest, s) < ID_WINDOW}

            if not ready:
                wait = max(0, min(next_boundary - now_us(), 20_000))
                readable, _, _ = select.select([sock], [], [], wait / 1e6)
                if not readable:
                    continue
            try:
                data, addr = sock.recvfrom(65535)
            except OSError:  # BlockingIOError once the socket is empty
                ready = False
                continue
            ready = True
            try:
                pkt = ChunkPacket.decode(data)
            except WireDecodeError:
                log.malformed += 1
                continue
            if pkt.k != k:
                log.malformed += 1
                continue
            sender_addr = addr
            arrival = now_us()
            sid = pkt.sample_id
            newest = log.max_sample_id
            ahead = serial_diff(sid, newest) if newest >= 0 else 1
            # The state of ids a window behind the newest is dropped, so
            # their chunks count as received but never decode again.
            live = ahead > -ID_WINDOW
            if live:
                dup_before = store.duplicates
                decoded_now = store.add(sid, pkt.chunk_index)
                if store.duplicates != dup_before:
                    log.duplicates += 1
                    continue
            log.chunks_received += 1
            if ahead > 0:
                # Sent estimate: serial ids are dense, so a newer id accounts
                # for every sample since the previous newest (the first id for
                # itself alone), at the n it carries.
                ivl_sent += ahead * pkt.n
                log.max_sample_id = sid
            delay_ms = max(0.0, (arrival - pkt.gen_timestamp_us) / 1000.0)
            if delay_ms < min_delay_raw:
                min_delay_raw = delay_ms
                log.min_delay_ms = delay_ms
            if config.relative_delay:
                delay_ms -= min_delay_raw
            ivl_delivered += 1
            ivl_delay_sum += delay_ms
            total_delay += delay_ms
            if delay_ms < ivl_min_delay:
                ivl_min_delay = delay_ms
            if not live:
                continue
            if not store.is_decoded(sid) or decoded_now:
                shares.setdefault(sid, {})[pkt.chunk_index] = pkt.payload
            if decoded_now:
                log.decoded_samples += 1
                bucket = shares.pop(sid)
                try:
                    payload = decode_payload(bucket, k, pkt.n, config.payload_bytes)
                    if payload == sample_payload(sid, config.payload_bytes):
                        log.payload_ok += 1
                except CodingError:
                    pass
                gen_slot = (pkt.gen_timestamp_us - start) // slot_us
                if gen_slot > decodes[-1][0]:
                    decodes.append((gen_slot, (arrival - start) // slot_us))
                if max_samples and log.decoded_samples >= max_samples:
                    break
    finally:
        if log.chunks_received:
            log.mean_delay_ms = total_delay / log.chunks_received
        if own_sock:
            sock.close()
    return log
