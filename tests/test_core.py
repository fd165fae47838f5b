"""Parameter objects, age tracking, and chunk bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agefec.core import (
    AgeTracker,
    CodingParams,
    LossModel,
    ParameterError,
    ReceiverChunkStore,
    total_loss_probability,
)


@pytest.mark.parametrize(
    "k,n,bits",
    [(0, 4, 8192), (5, 4, 8192), (3, 256, 8192), (3, 4, 0), (3, 4, 12)],
)
def test_coding_params_rejects(k, n, bits):
    with pytest.raises(ParameterError):
        CodingParams(k, n, sample_bits=bits)


def test_loss_model_bounds():
    LossModel(0.0, 1.0)
    with pytest.raises(ParameterError):
        LossModel(-0.1, 0.0)
    with pytest.raises(ParameterError):
        LossModel(0.0, 1.1)


def test_total_loss_probability():
    assert total_loss_probability(LossModel(0.1, 0.1)) == pytest.approx(0.19)
    assert total_loss_probability(LossModel(0.0, 0.0)) == 0.0
    assert total_loss_probability(LossModel(1.0, 0.0)) == 1.0
    assert total_loss_probability(LossModel(0.0, 0.3)) == pytest.approx(0.3)


def test_age_tracker_initial_age_defaults_to_threshold():
    tr = AgeTracker(avt=5)
    assert tr.initial_age == 5
    # No decodes: age is initial_age + now.
    assert tr.step(1) == 6
    assert tr.step(2) == 7


def test_age_tracker_decode_resets_age():
    tr = AgeTracker(avt=5, initial_age=0)
    assert tr.step(1) == 1
    assert tr.step(2, newly_decoded_gens=[1]) == 1  # age = 2 - 1
    assert tr.step(3) == 2
    # A staler decode never rolls the age back.
    assert tr.step(4, newly_decoded_gens=[0]) == 3
    assert tr.step(5, newly_decoded_gens=[5]) == 0


def test_age_tracker_rejects_bad_steps():
    tr = AgeTracker(avt=3)
    tr.step(1)
    with pytest.raises(ParameterError):
        tr.step(1)
    with pytest.raises(ParameterError):
        tr.step(2, newly_decoded_gens=[3])
    with pytest.raises(ParameterError):
        AgeTracker(avt=0)
    with pytest.raises(ParameterError):
        AgeTracker(avt=3, initial_age=-1)


@given(
    avt=st.integers(1, 20),
    initial=st.integers(0, 30),
    decodes=st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)), max_size=20),
)
def test_age_tracker_matches_running_max(avt, initial, decodes):
    """Age always equals now minus the max decoded gen seen so far."""
    tr = AgeTracker(avt, initial)
    freshest = -initial
    by_slot = {}
    for slot, gen in decodes:
        if gen <= slot:
            by_slot.setdefault(slot, []).append(gen)
    for now in range(1, 51):
        age = tr.step(now, by_slot.get(now, ()))
        freshest = max([freshest, *by_slot.get(now, ())])
        assert age == now - freshest


def test_chunk_store_decode_on_kth_distinct():
    store = ReceiverChunkStore(k=3)
    assert store.add(7, 0) is False
    assert store.add(7, 4) is False
    assert store.add(7, 2) is True  # third distinct index completes the set
    assert store.decoded == {7}
    # Extra chunks never re-trigger the decode signal.
    assert store.add(7, 1) is False
    assert store.chunks_received == 4
    assert store.duplicates == 0


def test_chunk_store_duplicates_counted_but_inert():
    store = ReceiverChunkStore(k=2)
    store.add(1, 0)
    assert store.add(1, 0) is False
    assert store.duplicates == 1
    assert store.chunks_received == 1
    assert store.add(1, 1) is True
    assert store.add(1, 1) is False
    assert store.duplicates == 2


def test_chunk_store_rejects_bad_args():
    with pytest.raises(ParameterError):
        ReceiverChunkStore(0)
    store = ReceiverChunkStore(2)
    with pytest.raises(ParameterError):
        store.add(1, -1)


@given(
    k=st.integers(1, 6),
    events=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 9)), min_size=0, max_size=60
    ),
)
def test_chunk_store_counts_consistent(k, events):
    store = ReceiverChunkStore(k)
    seen = set()
    decode_signals = 0
    for sid, idx in events:
        if store.add(sid, idx):
            decode_signals += 1
        seen.add((sid, idx))
    assert store.chunks_received == len(seen)
    assert store.duplicates == len(events) - len(seen)
    samples_with_k = sum(
        1
        for sid in {s for s, _ in seen}
        if len({i for s, i in seen if s == sid}) >= k
    )
    assert decode_signals == samples_with_k == len(store.decoded)
