"""Unit and property tests for the 8 KB chunker.

Reassembly lives in the data plane (in order, one object in progress per
origin): ``tests/core/test_reassembly.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.transport.chunker import CHUNK_BYTES, Chunker
from repro.transport.messages import SyntheticPayload, payload_length


def test_default_chunk_size_is_8kb():
    assert CHUNK_BYTES == 8192


def test_small_object_is_one_chunk():
    _object_id, parts, sizes = Chunker().split(b"tiny")
    assert parts == [b"tiny"]
    assert sizes == [4]


def test_exact_multiple_has_no_tail_chunk():
    _object_id, parts, sizes = Chunker().split(b"x" * (CHUNK_BYTES * 3))
    assert len(parts) == 3
    assert sizes == [CHUNK_BYTES] * 3
    assert [payload_length(p) for p in parts] == sizes


def test_tail_chunk_carries_remainder():
    _object_id, parts, sizes = Chunker().split(b"x" * (CHUNK_BYTES + 100))
    assert sizes == [CHUNK_BYTES, 100]
    assert payload_length(parts[1]) == 100


def test_paper_trace_message_count():
    # 3.87 GB of data in <=8KB messages gives about 517,294 messages
    # (Section VI-B).  Our chunk-count arithmetic must be in that regime.
    total_bytes = int(3.87 * 1024**3)
    _object_id, _parts, sizes = Chunker().split(SyntheticPayload(total_bytes))
    assert len(sizes) == pytest.approx(517_294, rel=0.02)


def test_synthetic_split_sizes():
    _object_id, parts, sizes = Chunker().split(SyntheticPayload(CHUNK_BYTES * 2 + 5))
    assert sizes == [CHUNK_BYTES, CHUNK_BYTES, 5]
    assert parts == [SyntheticPayload(n) for n in sizes]
    assert all(type(p) is SyntheticPayload for p in parts)


def test_object_ids_are_unique_per_chunker():
    chunker = Chunker()
    a, _parts, _sizes = chunker.split(b"a")
    b, _parts, _sizes = chunker.split(b"b")
    assert a != b


def test_zero_length_object_is_one_empty_chunk():
    for empty in (b"", SyntheticPayload(0)):
        _object_id, parts, sizes = Chunker().split(empty)
        assert sizes == [0]
        assert [payload_length(p) for p in parts] == [0]


def test_invalid_chunk_size_rejected():
    with pytest.raises(TransportError):
        Chunker(chunk_bytes=0)


def test_split_rejects_what_is_not_a_payload():
    with pytest.raises(TransportError):
        Chunker().split("a string")


@given(data=st.binary(min_size=0, max_size=2000), chunk_bytes=st.integers(1, 257))
@settings(max_examples=60, deadline=None)
def test_split_then_reassemble_roundtrips(data, chunk_bytes):
    chunker = Chunker(chunk_bytes=chunk_bytes)
    _object_id, parts, sizes = chunker.split(data)
    assert len(parts) == max(1, -(-len(data) // chunk_bytes))
    assert sizes == [len(p) for p in parts]
    assert all(0 < size <= chunk_bytes for size in sizes) or sizes == [0]
    assert b"".join(parts) == data


@given(length=st.integers(0, 5000), chunk_bytes=st.integers(1, 257))
@settings(max_examples=60, deadline=None)
def test_synthetic_split_covers_the_length(length, chunk_bytes):
    chunker = Chunker(chunk_bytes=chunk_bytes)
    _object_id, parts, sizes = chunker.split(SyntheticPayload(length))
    assert len(parts) == max(1, -(-length // chunk_bytes))
    assert sizes == [p.length for p in parts]
    assert sum(sizes) == length
    assert all(size == chunk_bytes for size in sizes[:-1])
