"""Erasure codec: field arithmetic, systematic layout, subset recovery."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import encode_reference
from agefec import coding
from agefec.coding import (
    decode_payload,
    encode_payload,
    gf_inv,
    gf_mul,
    pow_gf,
)
from agefec.core import CodingError, InsufficientChunksError


def test_field_axioms_exhaustive():
    # 255 nonzero elements form a multiplicative group
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0
    assert gf_mul(2, 128) == 29  # overflow reduced by the 0x11D polynomial
    assert pow_gf(2, 8) == 29
    assert pow_gf(7, 0) == 1


def test_gf_mul_commutes_and_distributes():
    rng = random.Random(0)
    for _ in range(500):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_systematic_prefix():
    """The first k shares are the payload chunks themselves."""
    payload = bytes(range(30))
    shares = encode_payload(payload, 3, 5)
    assert len(shares) == 5
    assert shares[0] == payload[:10]
    assert shares[1] == payload[10:20]
    assert shares[2] == payload[20:30]
    assert len(shares[3]) == len(shares[4]) == 10


def test_roundtrip_identity_subset():
    payload = b"the quick brown fox jumps over"
    shares = encode_payload(payload, 3, 6)
    assert decode_payload({0: shares[0], 1: shares[1], 2: shares[2]}, 3, 6, len(payload)) == payload


def test_all_subsets_small_exhaustive():
    rng = random.Random(1)
    for k in range(1, 5):
        for n in range(k, 7):
            payload = rng.randbytes(rng.randrange(1, 40))
            shares = encode_payload(payload, k, n)
            for subset in combinations(range(n), k):
                got = decode_payload({i: shares[i] for i in subset}, k, n, len(payload))
                assert got == payload, (k, n, subset)


def test_decode_accepts_surplus_shares():
    payload = bytes(100)
    shares = encode_payload(payload, 2, 5)
    assert decode_payload(dict(enumerate(shares)), 2, 5, 100) == payload


def test_decode_rejects_too_few():
    shares = encode_payload(b"abcdef", 3, 4)
    with pytest.raises(InsufficientChunksError):
        decode_payload({0: shares[0], 3: shares[3]}, 3, 4, 6)


def test_decode_rejects_bad_index():
    shares = encode_payload(b"abcdef", 2, 3)
    with pytest.raises(CodingError):
        decode_payload({0: shares[0], 9: shares[1]}, 2, 3, 6)


def test_pad_truncation():
    # payload length not divisible by k: decode strips the pad exactly
    payload = b"xyz" * 3 + b"Q"  # 10 bytes, k=3 -> chunk len 4
    shares = encode_payload(payload, 3, 5)
    assert all(len(s) == 4 for s in shares)
    assert decode_payload({1: shares[1], 3: shares[3], 4: shares[4]}, 3, 5, 10) == payload


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 8),
    extra=st.integers(0, 8),
    payload=st.binary(min_size=1, max_size=120),
    data=st.data(),
)
def test_random_subset_roundtrip(k, extra, payload, data):
    n = k + extra
    shares = encode_payload(payload, k, n)
    subset = data.draw(st.permutations(range(n)))[:k]
    got = decode_payload({i: shares[i] for i in subset}, k, n, len(payload))
    assert got == payload


def test_encode_is_deterministic():
    payload = bytes(range(64))
    assert encode_payload(payload, 4, 9) == encode_payload(payload, 4, 9)


def _random_codes(rng, count):
    """(k, n, payload length) triples: k up to 32, n up to 3k capped at 255, lengths k rarely divides."""
    cases = [(1, 1, 0), (1, 3, 5), (32, 96, 97), (32, 32, 64)]
    while len(cases) < count:
        k = rng.randint(1, 32)
        cases.append((k, min(255, rng.randint(k, 3 * k)), rng.randint(0, 160)))
    return cases


def test_encode_matches_scalar_reference():
    """Parity bytes are the wire format: the table codec must equal the byte-at-a-time one."""
    rng = random.Random(7)
    for k, n, length in _random_codes(rng, 40):
        payload = rng.randbytes(length)
        assert encode_payload(payload, k, n) == encode_reference(payload, k, n), (k, n, length)


def test_decode_with_random_data_chunks_lost():
    rng = random.Random(8)
    for k, n, length in _random_codes(rng, 60):
        if n == k:
            continue
        payload = rng.randbytes(length)
        shares = encode_payload(payload, k, n)
        lost = set(rng.sample(range(k), rng.randint(1, min(k, n - k))))
        kept = [i for i in range(n) if i not in lost]
        subset = rng.sample(kept, rng.randint(k, len(kept)))
        assert decode_payload({i: shares[i] for i in subset}, k, n, length) == payload, (k, n, lost)


def test_decode_inverse_cache_stays_bounded():
    k, n = 3, 20
    shares = encode_payload(bytes(range(30)), k, n)
    index_sets = list(combinations(range(1, n), k))[: coding._INVERSE_CACHE_SIZE + 50]
    for subset in index_sets:
        assert decode_payload({i: shares[i] for i in subset}, k, n, 30) == bytes(range(30))
    info = coding._inverse.cache_info()
    assert info.maxsize == coding._INVERSE_CACHE_SIZE
    assert info.currsize <= info.maxsize
