"""Span tracing around the public calls of each agefec layer.

The wrappers live here, in the benchmark, and replace the wrapped names in
every agefec module that holds them, so calls made through `from x import y`
names are traced too.  Per-slot calls are kept as totals per (name, parent);
the few long calls named in SPAN_NAMES also keep one span record each.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path) of every traced call, by layer.
TRACED = (
    ("netsim", "BottleneckPath.inject"),
    ("netsim", "BottleneckPath.advance_slot"),
    ("netsim", "BottleneckPath.deliveries_at"),
    ("netsim", "run_fixed_rate_sim"),
    ("core", "ReceiverChunkStore.add"),
    ("core", "AgeTracker.step"),
    ("fixed_sampling", "select_chunks"),
    ("fixed_sampling", "update_controller"),
    ("fixed_sampling", "optimal_selection_probs"),
    ("fixed_sampling", "run_sim"),
    ("adaptive_sampling", "process_interval"),
    ("adaptive_sampling", "select_block_length"),
    ("adaptive_sampling", "interval_age_violation"),
    ("adaptive_sampling", "run_adaptive_flows"),
    ("analysis", "decode_probability"),
    ("analysis", "expected_violation_fraction"),
    ("multiflow", "allocate_rates"),
    ("multiflow", "run_sim"),
    ("coding", "encode_payload"),
    ("coding", "decode_payload"),
    ("wire", "run_sender"),
    ("wire", "run_receiver"),
    ("wire", "sample_payload"),
    ("wire", "ChunkPacket.encode"),
    ("wire", "ChunkPacket.decode"),
    ("experiments", "run_experiment"),
    ("experiments", "write_csv"),
    ("experiments", "write_json"),
)

SPAN_NAMES = frozenset(
    {
        "experiments.run_experiment",
        "experiments.write_csv",
        "experiments.write_json",
        "fixed_sampling.run_sim",
        "adaptive_sampling.run_adaptive_flows",
        "multiflow.run_sim",
        "netsim.run_fixed_rate_sim",
        "wire.run_sender",
        "wire.run_receiver",
    }
)

LAYERS = (
    "netsim",
    "core",
    "fixed_sampling",
    "adaptive_sampling",
    "analysis",
    "multiflow",
    "coding",
    "wire",
    "experiments",
)


def _parity_name(args, kwargs) -> str:
    """decode_payload needs parity unless the first k shares are the data chunks."""
    shares, k = args[0], args[1]
    systematic = sorted(shares)[:k] == list(range(k))
    return "coding.decode_payload.systematic" if systematic else "coding.decode_payload.parity"


CLASSIFY = {"coding.decode_payload": _parity_name}
# Payload bytes each call moves, for the codec's MB/s.
NBYTES = {
    "coding.encode_payload": lambda args, kwargs: len(args[0]),
    "coding.decode_payload": lambda args, kwargs: args[3],
}


class Tracer:
    """In-memory spans: totals per (name, parent) plus records of long calls."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        # (name, parent) -> [calls, total_ns, self_ns, bytes]
        self.totals: dict[tuple[str, str | None], list[int]] = {}
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self.trackers: list = []
        self.stores: list = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack = self._stack
        totals = self.totals
        spans = self.spans
        clock = time.perf_counter_ns
        keep = name in SPAN_NAMES
        classify = CLASSIFY.get(name)
        nbytes = NBYTES.get(name)

        def traced(*args, **kwargs):
            label = classify(args, kwargs) if classify else name
            span_id = None
            if keep:
                self._next_id += 1
                span_id = self._next_id
            frame = [label, clock(), 0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                key = (label, parent[0] if parent else None)
                entry = totals.get(key)
                if entry is None:
                    entry = totals[key] = [0, 0, 0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if nbytes is not None:
                    entry[3] += nbytes(args, kwargs)
                if keep:
                    owner = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                    spans.append((span_id, label, frame[1], end, owner))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED call and register AgeTracker/ReceiverChunkStore instances."""
        modules = [m for key, m in sys.modules.items() if key.startswith("agefec") and m]
        for mod_name, path in TRACED:
            owner = sys.modules[f"agefec.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{mod_name}.{path}"
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        core = sys.modules["agefec.core"]
        self._register(core.AgeTracker, self.trackers)
        self._register(core.ReceiverChunkStore, self.stores)

    @staticmethod
    def _register(cls, registry: list) -> None:
        init = cls.__init__

        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)

        cls.__init__ = registering_init

    def take_state_counts(self) -> tuple[int, int]:
        """Largest age trace and decoded set held by one instance; forgets them."""
        trace = max((len(getattr(t, "trace", ())) for t in self.trackers), default=0)
        decoded = max((len(getattr(s, "decoded", ())) for s in self.stores), default=0)
        self.trackers.clear()
        self.stores.clear()
        return trace, decoded

    def by_name(self) -> dict[str, list[int]]:
        """Totals summed over parents: name -> [calls, total_ns, self_ns, bytes]."""
        out: dict[str, list[int]] = {}
        for (name, _parent), entry in self.totals.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(entry):
                acc[i] += value
        return out

    def export(self) -> dict:
        return {
            "totals": [
                {"name": n, "parent": p, "calls": c, "total_ns": t, "self_ns": s, "bytes": b}
                for (n, p), (c, t, s, b) in sorted(self.totals.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "spans": [
                {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh)


def merge_totals(into: dict[str, list[int]], other: dict[str, list[int]]) -> None:
    for name, entry in other.items():
        acc = into.setdefault(name, [0, 0, 0, 0])
        for i, value in enumerate(entry):
            acc[i] += value


def layer_metrics(totals: dict[str, list[int]], slots: int, ops: int) -> dict[str, float]:
    """Per-layer metrics from name totals.

    `slots` is the number of simulated slots and `ops` the number of
    operations (seeded runs, or wire samples) behind the totals.
    """

    def self_us(name: str) -> float:
        calls, _total, self_ns, _bytes = totals.get(name, (0, 0, 0, 0))
        return self_ns / calls / 1e3 if calls else 0.0

    def mbps(name: str) -> float:
        _calls, _total, self_ns, nbytes = totals.get(name, (0, 0, 0, 0))
        return nbytes / self_ns * 1e3 if self_ns else 0.0

    def calls(name: str) -> int:
        return totals.get(name, (0,))[0]

    path_ns = sum(
        totals.get(f"netsim.BottleneckPath.{m}", (0, 0, 0, 0))[2]
        for m in ("inject", "advance_slot", "deliveries_at")
    )
    write_ns = sum(
        totals.get(f"experiments.{m}", (0, 0, 0, 0))[2] for m in ("write_csv", "write_json")
    )
    parity = "coding.decode_payload.parity"
    out = {
        "netsim.inject_us": self_us("netsim.BottleneckPath.inject"),
        "netsim.advance_slot_us": self_us("netsim.BottleneckPath.advance_slot"),
        "netsim.deliveries_at_us": self_us("netsim.BottleneckPath.deliveries_at"),
        "netsim.path_us_per_slot": path_ns / slots / 1e3 if slots else 0.0,
        "core.store_add_us": self_us("core.ReceiverChunkStore.add"),
        "core.age_step_us": self_us("core.AgeTracker.step"),
        "fixed_sampling.select_chunks_us": self_us("fixed_sampling.select_chunks"),
        "fixed_sampling.update_controller_us": self_us("fixed_sampling.update_controller"),
        "adaptive_sampling.process_interval_us": self_us("adaptive_sampling.process_interval"),
        "adaptive_sampling.select_block_length_us": self_us("adaptive_sampling.select_block_length"),
        "adaptive_sampling.interval_age_violation_us": self_us(
            "adaptive_sampling.interval_age_violation"
        ),
        "analysis.decode_probability_us": self_us("analysis.decode_probability"),
        "analysis.decode_probability_calls": calls("analysis.decode_probability") / ops if ops else 0.0,
        "multiflow.allocate_rates_us": self_us("multiflow.allocate_rates"),
        "coding.encode_MBps": mbps("coding.encode_payload"),
        "coding.decode_parity_MBps": mbps(parity),
        "coding.decode_systematic_MBps": mbps("coding.decode_payload.systematic"),
        "coding.decode_parity_calls": calls(parity) / ops if ops else 0.0,
        "wire.sample_payload_us": self_us("wire.sample_payload"),
        "wire.chunk_encode_us": self_us("wire.ChunkPacket.encode"),
        "wire.chunk_decode_us": self_us("wire.ChunkPacket.decode"),
        "experiments.write_s": write_ns / ops / 1e9 if ops else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(
            entry[0] for name, entry in totals.items() if name.startswith(layer + ".")
        )
    return out
