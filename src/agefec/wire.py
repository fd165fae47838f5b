"""UDP reference transport: chunk datagrams out, rate feedback back.

The receiver owns the control loop.  Every monitoring interval it scores its
decode log, runs the adaptive controller, and mails the resulting rate, block
length, and sampling interval to the sender, which applies them at the next
sample boundary.  One slot is one millisecond unless configured otherwise.

Each endpoint is a core without I/O (`SenderCore`, `ReceiverCore`) with one
shape: `poll(now)` returns the datagrams to send and the next wake-up time,
and `on_datagram(buf, now)` takes one datagram.  One loop, `_serve`, reads
the clock, waits in `select` and moves the bytes for both.  Loss
and extra latency for tests come from a shim inside the sender's core, so
loopback runs exercise the full protocol without touching the network stack.
"""

from __future__ import annotations

import math
import random
import select
import socket
import struct
import threading
import time
from collections import deque
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

from .adaptive_sampling import (
    ADAPTIVE_COLUMNS,
    AdaptiveController,
    AdaptiveSamplingState,
    monitoring_interval_length,
    restart_rate,
    sampling_interval,
)
from .coding import _cached_generator, decode_payload, encode_payload
from .core import CodingError, ParameterError, serial_diff
from .netsim import Interval

WIRE_VERSION = 1
CHUNK_MAGIC = b"A3LF"
FEEDBACK_MAGIC = b"A3LB"
DELAY_INF_US = 2**64 - 1
# Round-trip time, in slots, that both endpoints assume before any feedback.
RTT_INIT = 2.0
# The receiver keeps state only for sample ids fewer than this many behind
# the newest id; chunks of older samples are counted and otherwise ignored.
ID_WINDOW = 1 << 15
# Receive buffer a receiver asks for on a socket it opens itself.  The kernel's
# default held 25 chunk datagrams of 4 KiB, under 2 ms at 16 chunks per ms.
RCVBUF_BYTES = 4 << 20

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
    """Shared knobs for both endpoints; one slot is slot_ms milliseconds.

    Building one readies the codec for (k, n_init): numpy loads and the
    generator is built here, before any traffic, not at the first decode,
    when chunks are already arriving and a late receiver loses them in the
    kernel.
    """

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
        _cached_generator(self.k, self.n_init)

    @property
    def avt_slots(self) -> int:
        return max(1, round(self.avt_ms / self.slot_ms))


@dataclass
class SenderLog:
    schema: ClassVar[str] = "wire-sender/1"
    columns: ClassVar[tuple[str, ...]] = ("ms", "sigma", "n", "ts_ms", "source")

    samples_sent: int = 0
    chunks_sent: int = 0
    shim_dropped: int = 0
    stale_skipped: int = 0
    feedback_applied: int = 0
    stale_feedback: int = 0  # feedback no newer than the last applied
    malformed: int = 0  # feedback that failed to parse or commanded n < k
    fallbacks: int = 0
    socket_errors: int = 0
    final_sigma: float = 0.0
    final_n: int = 0
    final_ts_ms: int = 0
    rows: list[tuple] = field(default_factory=list)


@dataclass
class ReceiverLog:
    schema: ClassVar[str] = "adaptive-sampling-interval/1"
    columns: ClassVar[tuple[str, ...]] = ADAPTIVE_COLUMNS

    chunks_received: int = 0
    duplicates: int = 0
    malformed: int = 0
    decoded_samples: int = 0
    payload_ok: int = 0
    feedback_sent: int = 0
    mean_delay_ms: float = math.inf
    min_delay_ms: float = math.inf
    max_sample_id: int = -1
    rows: list[tuple] = field(default_factory=list)


class SenderCore:
    """The sender's protocol without I/O: pacing, the egress shim, staged feedback.

    Times are integer microseconds and never go back.  The shim drops each
    chunk with one draw from its own seeded stream and holds the rest for a
    fixed delay.  Staged parameters, from feedback or the missing-feedback
    fallback, swap in at the next sample boundary; the log's final_sigma,
    final_n and final_ts_ms hold the ones in force.
    """

    def __init__(self, config: WireConfig, start_us: int) -> None:
        self.config = config
        self.log = log = SenderLog()
        self.start = self.next_sample = self.last_feedback = start_us
        self.sample_id = 0
        self.done = False
        self.pending: tuple[float, int, int] | None = None  # (sigma, n, ts_ms)
        self.last_applied: int | None = None  # mi_index of the newest feedback applied
        self.rng = random.Random(f"{config.shim_seed}/shim")
        self.delay_us = int(config.delay_shim_ms * 1000)
        self.queue: deque[tuple[int, bytes]] = deque()  # (due, datagram), due times ascending
        if config.fixed_rate is not None:
            log.final_sigma, log.final_n = config.fixed_rate, config.n_init
        else:
            init = AdaptiveSamplingState.initial(config.k, config.n_init, config.avt_slots, RTT_INIT)
            log.final_sigma, log.final_n = init.sigma, init.n
        log.final_ts_ms = sampling_interval(log.final_n, log.final_sigma) * config.slot_ms

    def poll(self, now: int) -> tuple[list[bytes], int | None]:
        """Datagrams that leave at `now`, and when to poll next (None: all have left)."""
        # Delayed datagrams already due leave ahead of this poll's sample, so
        # they never wait behind its encode.
        out = self._release(now)
        if not self.done:
            cfg, n = self.config, self.log.final_n
            if cfg.fixed_rate is None and self.pending is None:
                # Silence beyond five feedback periods: assume the pipe
                # drained and restart from the bandwidth estimate.  The
                # receiver may have restarted and numbers its intervals
                # afresh, so the next feedback applies whatever its index.
                t_tilde_us = monitoring_interval_length(cfg.avt_slots, n) * cfg.slot_ms * 1000
                if now - self.last_feedback > 5 * t_tilde_us:
                    refill = restart_rate(n, RTT_INIT)
                    self.pending = (refill, n, sampling_interval(n, refill) * cfg.slot_ms)
                    self.last_feedback = now
                    self.last_applied = None
                    self.log.fallbacks += 1
            if now >= self.next_sample:
                self._sample(now)
                out += self._release(now)
        wakes = [self.queue[0][0]] if self.queue else []
        if not self.done:
            wakes.append(self.next_sample)
        return out, min(wakes, default=None)

    def _release(self, now: int) -> list[bytes]:
        queue, out = self.queue, []
        while queue and queue[0][0] <= now:
            out.append(queue.popleft()[1])
        return out

    def _sample(self, now: int) -> None:
        cfg, log = self.config, self.log
        if self.pending is not None:
            sigma, n, ts_ms = self.pending
            log.final_sigma, log.final_n, log.final_ts_ms = sigma, n, max(1, int(ts_ms))
            self.pending = None
            log.rows.append(((now - self.start) // 1000, sigma, n, log.final_ts_ms, "apply"))
        # The sample nominally exists since its scheduled slot; if the poll
        # came so late that it already breaches the threshold, sending it
        # cannot help the receiver.
        gen = self.next_sample
        if now - gen > cfg.avt_ms * 1000:
            log.stale_skipped += 1
        else:
            sid, k, n = self.sample_id, cfg.k, log.final_n
            due = now + self.delay_us
            for idx, part in enumerate(encode_payload(sample_payload(sid, cfg.payload_bytes), k, n)):
                if cfg.drop_shim > 0.0 and self.rng.random() < cfg.drop_shim:
                    log.shim_dropped += 1
                    continue
                # ChunkPacket(...).encode() without the object: the config and
                # feedback checks keep every field in range.
                header = _CHUNK_HEADER.pack(CHUNK_MAGIC, WIRE_VERSION, sid, gen, idx, k, n, len(part))
                self.queue.append((due, header + part))
            log.samples_sent += 1
            self.sample_id = (sid + 1) & 0xFFFFFFFF
        self.next_sample += log.final_ts_ms * 1000
        if self.next_sample < now:
            self.next_sample = now + log.final_ts_ms * 1000
        self.done = cfg.samples > 0 and log.samples_sent >= cfg.samples

    def on_datagram(self, buf: bytes, now: int) -> bool:
        """Stage the parameters a feedback datagram commands; False for a bad one.

        Feedback applies only when its interval is newer, as a serial number,
        than the last applied; older or repeated feedback is counted as stale
        and, like silence, leads to the fallback after five feedback periods.
        After the fallback the next feedback applies, whatever its interval.
        """
        if self.done:  # nothing is left to pace
            return False
        try:
            fb = FeedbackPacket.decode(buf)
        except WireDecodeError:
            fb = None
        if fb is None or fb.new_n < self.config.k:  # the field caps n at 255
            self.log.malformed += 1
            return False
        if self.config.fixed_rate is None:
            if self.last_applied is not None and serial_diff(fb.mi_index, self.last_applied) <= 0:
                self.log.stale_feedback += 1
                return True
            self.last_applied, self.last_feedback = fb.mi_index, now
            self.pending = (fb.sigma, fb.new_n, fb.new_ts_ms)
            self.log.feedback_applied += 1
            self.log.rows.append(((now - self.start) // 1000, *self.pending, "feedback"))
        return True


class ReceiverCore:
    """The receiver's protocol without I/O: chunk bookkeeping, decodes, intervals.

    Each interval is counted in the `Interval` record the slot engine fills,
    with microseconds bucketed into slots, and goes through the
    `AdaptiveController.step` the simulator runs.  One table keyed by sample
    id holds the chunk indices seen and, until the sample decodes, their
    payloads.  Ids are ordered as 32-bit serial numbers.  With max_samples >
    0 the core is done once that many distinct samples have decoded.
    """

    def __init__(self, config: WireConfig, start_us: int, max_samples: int = 0) -> None:
        self.config = config
        self.max_samples = max_samples
        self.avt = avt = config.avt_slots
        self.slot_us = config.slot_ms * 1000
        self.start = start_us
        init = AdaptiveSamplingState.initial(config.k, config.n_init, avt, rtt_init=RTT_INIT)
        self.controller = AdaptiveController(init, config.k, avt)
        self.log = ReceiverLog(rows=self.controller.rows)
        # sample id -> [bit mask of chunk indices seen, {index: payload}, or None once decoded]
        self.table: dict[int, list] = {}
        # The decode log starts with a virtual decode that puts the age at
        # the threshold when the run starts.
        self.interval = Interval(0, [[(-avt, 0)]])
        self.next_boundary = start_us + init.t_tilde * self.slot_us
        self.total_delay = 0.0

    def poll(self, now: int) -> tuple[list[bytes], int | None]:
        """The feedback datagram of an interval that ended by `now`, if one did,
        and the next boundary (None once done)."""
        if self.max_samples and self.log.decoded_samples >= self.max_samples:
            return [], None
        if now < self.next_boundary:
            return [], self.next_boundary
        slot_ms, interval = self.config.slot_ms, self.interval
        boundary_slot = (now - self.start) // self.slot_us
        end = interval.start + max(1, boundary_slot - interval.start)
        _raws, _ratios, stats = self.controller.step(interval, end, (self.avt,))
        state = self.controller.state
        self.interval = Interval(boundary_slot, [interval.decodes[0][-1:]])
        self.next_boundary = now + state.t_tilde * self.slot_us
        self._prune()
        delay_ms = stats.wbar_mi * slot_ms if math.isfinite(stats.wbar_mi) else math.inf
        feedback = FeedbackPacket.from_values(
            state.mi, state.sigma, state.n, state.t_s * slot_ms, stats.av_ratio, stats.pdr, delay_ms
        ).encode()
        return [feedback], self.next_boundary

    def _prune(self) -> None:
        # Ids mostly arrive in order, so the oldest lead the insertion order and
        # go without a scan; a full scan runs only when late stragglers would
        # leave more than ID_WINDOW ids held.
        newest, table = self.log.max_sample_id, self.table
        old = []
        for sid in table:
            if serial_diff(newest, sid) < ID_WINDOW:
                break
            old.append(sid)
        if len(table) - len(old) > ID_WINDOW:
            old = [sid for sid in table if serial_diff(newest, sid) >= ID_WINDOW]
        for sid in old:
            del table[sid]

    def on_datagram(self, buf: bytes, now: int) -> bool:
        """Take one datagram; True when it is a chunk of this code, duplicate or not."""
        log, k = self.log, self.config.k
        try:
            pkt = ChunkPacket.decode(buf)
        except WireDecodeError:
            pkt = None
        if pkt is None or pkt.k != k:
            log.malformed += 1
            return False
        sid, idx, newest = pkt.sample_id, pkt.chunk_index, log.max_sample_id
        ahead = serial_diff(sid, newest) if newest >= 0 else 1
        # Ids a window behind the newest may have left the table already, so
        # their chunks count as received but never decode again.
        entry = self.table.setdefault(sid, [0, {}]) if ahead > -ID_WINDOW else None
        if entry is not None:
            if entry[0] >> idx & 1:
                log.duplicates += 1
                return True
            entry[0] |= 1 << idx
        log.chunks_received += 1
        interval = self.interval
        if ahead > 0:
            # Sent estimate: serial ids are dense, so a newer id accounts for
            # every sample since the previous newest (the first id for itself
            # alone), at the n it carries.
            interval.sent += ahead * pkt.n
            log.max_sample_id = sid
        delay_ms = max(0.0, (now - pkt.gen_timestamp_us) / 1000.0)
        if delay_ms < log.min_delay_ms:
            log.min_delay_ms = delay_ms
        if self.config.relative_delay:
            delay_ms -= log.min_delay_ms
        delay = delay_ms / self.config.slot_ms
        interval.delivered += 1
        interval.delay_sum += delay
        if delay < interval.min_delay:
            interval.min_delay = delay
        self.total_delay += delay_ms
        log.mean_delay_ms = self.total_delay / log.chunks_received
        parts = entry and entry[1]
        if parts is None:
            return True
        parts[idx] = pkt.payload
        if len(parts) < k:
            return True
        entry[1] = None
        log.decoded_samples += 1
        nbytes = self.config.payload_bytes
        with suppress(CodingError):
            if decode_payload(parts, k, pkt.n, nbytes) == sample_payload(sid, nbytes):
                log.payload_ok += 1
        gen_slot = (pkt.gen_timestamp_us - self.start) // self.slot_us
        decodes = interval.decodes[0]
        if gen_slot > decodes[-1][0]:
            decodes.append((gen_slot, (now - self.start) // self.slot_us))
        return True


def _serve(
    core: SenderCore | ReceiverCore, sock: socket.socket, stop: threading.Event | None, dest=None
) -> tuple[int, int]:
    """Drive `core` on `sock` until it is done or `stop` is set.

    Datagrams the core releases go to `dest`, or without one to the source
    of the last datagram the core accepted (and nowhere before that).  Once
    `select` reports the socket readable, the loop reads it until empty, one
    datagram per pass, so wake times and `stop` are still checked between
    any two datagrams.  Returns the sends the socket accepted and refused.
    """
    sock.setblocking(False)
    to, sent, refused = dest, 0, 0
    ready = False  # the last read found a datagram, so more may be queued
    while not (stop is not None and stop.is_set()):
        datagrams, wake = core.poll(now_us())
        for data in datagrams if to is not None else ():
            try:
                sock.sendto(data, to)
                sent += 1
            except OSError:
                refused += 1
        if wake is None:
            break
        if not ready:
            # Encoding took time: wait from now, not from the poll's clock
            # read, or a late sender sleeps a whole slot after every sample.
            wait_us = max(0, min(wake - now_us(), 20_000))
            if not select.select([sock], [], [], wait_us / 1e6)[0]:
                continue
        try:
            data, source = sock.recvfrom(65535)
        except OSError:  # BlockingIOError once the socket is empty
            ready = False
            continue
        ready = True
        if core.on_datagram(data, now_us()) and dest is None:
            to = source
    return sent, refused


def run_sender(
    config: WireConfig,
    stop: threading.Event | None = None,
    sock: socket.socket | None = None,
) -> SenderLog:
    """Pace samples to the destination, applying feedback as it arrives.

    `SenderCore` behind `_serve`.  `chunks_sent` counts the datagrams the
    socket accepted and `socket_errors` those it refused.
    """
    if config.dest is None:
        raise ParameterError("sender needs a destination address")
    own_sock = sock is None
    if own_sock:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("0.0.0.0", 0))
    with sock if own_sock else nullcontext():
        core = SenderCore(config, now_us())
        core.log.chunks_sent, core.log.socket_errors = _serve(core, sock, stop, config.dest)
    return core.log


def run_receiver(
    config: WireConfig,
    stop: threading.Event | None = None,
    sock: socket.socket | None = None,
    max_samples: int = 0,
) -> ReceiverLog:
    """Collect chunks, decode, score intervals, and mail feedback.

    `ReceiverCore` behind `_serve`, which sends each feedback datagram to
    where the last chunk came from.  With max_samples > 0 it ends once that
    many distinct samples have decoded (test hook).  A socket it opens
    itself asks for `RCVBUF_BYTES` of receive buffer.
    """
    own_sock = sock is None
    if own_sock:
        if config.listen is None:
            raise ParameterError("receiver needs a listen address")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF_BYTES)
        sock.bind(config.listen)
    with sock if own_sock else nullcontext():
        core = ReceiverCore(config, now_us(), max_samples)
        core.log.feedback_sent, _refused = _serve(core, sock, stop)
    return core.log
