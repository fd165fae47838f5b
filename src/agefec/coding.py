"""Systematic MDS erasure code over GF(256).

An n x k generator is built from a Vandermonde matrix with distinct
evaluation points and normalized so its top k rows are the identity: the
first k output chunks are the payload itself, and every k x k row subset
stays invertible, so any k of the n chunks reconstruct the payload exactly.

The field arithmetic is plain Python; only the bulk row operations use numpy.
numpy is imported, and the 256 x 256 multiplication table built, on the first
codec call, so the simulators, which never code a payload, run without it.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import TYPE_CHECKING

from .core import CodingError, InsufficientChunksError

if TYPE_CHECKING:
    import numpy as np

_PRIMITIVE_POLY = 0x11D

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIMITIVE_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


@cache
def _mul_table() -> np.ndarray:
    """table[a, b] = a * b in GF(256), built on first use."""
    import numpy as np

    # One row at a time: a single 256 x 256 gather needs temporaries that add
    # about 0.3 MB to peak RSS.
    table = np.zeros((256, 256), dtype=np.uint8)
    exp, log = np.array(_EXP, dtype=np.uint8), np.array(_LOG[1:])
    for a in range(1, 256):
        table[a, 1:] = exp[_LOG[a] + log]
    return table


_INVERSE_CACHE_SIZE = 256  # decode inverses kept, each k x k bytes


def _table(coeffs: np.ndarray) -> np.ndarray:
    """Per-input-row tables: tab[j, v] holds v * coeffs[:, j], one byte per output row."""
    import numpy as np

    return np.ascontiguousarray(_mul_table()[:, coeffs.T].transpose(1, 0, 2))


def _lincomb(tab: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Output rows of coeffs @ rows over GF(256), from tab = _table(coeffs).

    Each input row costs one gather that fetches its share of every output
    row at once; the result is a (outputs, len) view.
    """
    import numpy as np

    acc = np.take(tab[0], rows[0], axis=0)
    for j in range(1, len(rows)):
        acc ^= np.take(tab[j], rows[j], axis=0)
    return acc.T


def _mat_inv(m: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan inverse of a small matrix over GF(256)."""
    size = len(m)
    aug = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise CodingError("singular matrix: evaluation points not distinct")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = gf_inv(aug[col][col])
        aug[col] = [gf_mul(v, inv_p) for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v ^ gf_mul(factor, p) for v, p in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def pow_gf(x: int, e: int) -> int:
    if e == 0:
        return 1
    if x == 0:
        return 0
    return _EXP[(_LOG[x] * e) % 255]


# Per (k, n): the n x k generator and the tables of its n - k parity rows.
_GENERATORS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _cached_generator(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    if (k, n) not in _GENERATORS:
        import numpy as np

        vand = np.array([[pow_gf(x, j) for j in range(k)] for x in range(n)], dtype=np.uint8)
        top_inv = np.array(_mat_inv(vand[:k].tolist()), dtype=np.uint8)
        gen = np.ascontiguousarray(_lincomb(_table(vand), top_inv))
        assert (gen[:k] == np.eye(k, dtype=np.uint8)).all(), "generator not systematic"
        _GENERATORS[k, n] = (gen, _table(gen[k:]))
    return _GENERATORS[k, n]


@lru_cache(maxsize=_INVERSE_CACHE_SIZE)
def _inverse(k: int, n: int, indices: tuple[int, ...]) -> np.ndarray:
    """Inverse of the generator rows `indices`: maps those chunks back to the data."""
    import numpy as np

    gen, _ = _cached_generator(k, n)
    inv = np.array(_mat_inv(gen[list(indices)].tolist()), dtype=np.uint8)
    inv.flags.writeable = False  # shared by every caller through the cache
    return inv


def encode_payload(payload: bytes, k: int, n: int) -> list[bytes]:
    """Split `payload` into k padded data chunks and emit n coded chunks."""
    import numpy as np

    chunk_len = -(-len(payload) // k) if payload else 1
    padded = payload.ljust(chunk_len * k, b"\0")
    out: list[bytes] = [padded[i * chunk_len:(i + 1) * chunk_len] for i in range(k)]
    data = np.frombuffer(padded, dtype=np.uint8).reshape(k, chunk_len)
    return out + [row.tobytes() for row in _lincomb(_cached_generator(k, n)[1], data)]


def decode_payload(shares: dict[int, bytes], k: int, n: int, payload_len: int) -> bytes:
    """Reconstruct the payload from any k of the n coded chunks.

    `shares` maps chunk index to chunk bytes; exactly the original
    `payload_len` bytes come back (padding stripped).
    """
    if len(shares) < k:
        raise InsufficientChunksError(f"got {len(shares)} distinct chunks, need {k}")
    indices = sorted(shares)[:k]
    if indices[0] < 0 or indices[-1] >= n:
        raise CodingError(f"chunk index out of range for n={n}: {indices}")
    lengths = {len(shares[i]) for i in indices}
    if len(lengths) != 1:
        raise CodingError(f"chunk lengths differ: {sorted(lengths)}")
    chunk_len = lengths.pop()
    # Every data chunk that arrived is among the k lowest indices and is kept
    # as it is; only the missing ones are recomputed from those k chunks.
    missing = [i for i in range(k) if i not in shares]
    if missing:
        import numpy as np

        inv = _inverse(k, n, tuple(indices))
        received = np.frombuffer(b"".join(shares[i] for i in indices), dtype=np.uint8)
        rows = _lincomb(_table(inv[missing]), received.reshape(k, chunk_len))
        shares = {**shares, **{i: row.tobytes() for i, row in zip(missing, rows)}}
    return b"".join(shares[i] for i in range(k))[:payload_len]

