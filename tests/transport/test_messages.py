"""Unit tests for wire frames and payload sizing."""

import struct

import pytest

from repro.errors import TransportError
from repro.transport.messages import (
    BATCH_HEADER,
    KIND_CONTROL_BATCH,
    ControlBatch,
    ControlFrame,
    InterestFrame,
    ResumeFrame,
    SyntheticPayload,
    payload_length,
)


def test_payload_length_bytes_and_synthetic():
    assert payload_length(b"abc") == 3
    assert payload_length(memoryview(b"abcd")[1:]) == 3
    assert payload_length(bytearray(b"ab")) == 2
    assert payload_length(SyntheticPayload(8192)) == 8192


def test_payload_length_rejects_other_types():
    with pytest.raises(TransportError):
        payload_length("a string")


def test_synthetic_payload_validation_and_equality():
    with pytest.raises(TransportError):
        SyntheticPayload(-1)
    assert SyntheticPayload(5) == SyntheticPayload(5)
    assert SyntheticPayload(5) != SyntheticPayload(6)
    assert len(SyntheticPayload(7)) == 7


def test_control_frame_roundtrip_preserves_entries():
    frame = ControlFrame(node_index=2, origin_index=0, entries={0: 99, 3: 42})
    decoded = ControlFrame.decode(frame.encode())
    assert decoded.node_index == 2
    assert decoded.origin_index == 0
    assert decoded.entries == {0: 99, 3: 42}


def test_interest_frame_roundtrip_and_wire_size():
    frame = InterestFrame(node_index=3, version=70_000, origins=[4, 0, 2])
    decoded = InterestFrame.decode(frame.encode())
    assert (decoded.node_index, decoded.version) == (3, 70_000)
    assert decoded.origins == (0, 2, 4)
    assert frame.wire_size() == len(frame.encode())
    assert InterestFrame(0, 1, []).wire_size() == len(InterestFrame(0, 1, []).encode())
    with pytest.raises(TransportError, match="not an interest frame"):
        InterestFrame.decode(ControlFrame(0, 0, {0: 1}).encode() + b"\0" * 4)
    with pytest.raises(TransportError, match="truncated"):
        InterestFrame.decode(frame.encode()[:-1])


def test_control_frame_wire_size_scales_with_entries():
    small = ControlFrame(0, 0, {0: 1})
    big = ControlFrame(0, 0, {i: 1 for i in range(10)})
    assert big.wire_size() > small.wire_size()
    assert small.wire_size() == len(small.encode())
    assert big.wire_size() == len(big.encode())


_BATCH = ControlBatch(1, [ControlFrame(1, 0, {0: 7}), ControlFrame(1, 2, {0: 3, 1: 2})])


@pytest.mark.parametrize(
    "frame",
    [
        ControlFrame(2, 1, {0: 99, 3: 42}),
        _BATCH,
        ResumeFrame(1, {0: 5, 2: 9}),
    ],
    ids=lambda frame: type(frame).__name__,
)
def test_a_truncated_frame_is_a_transport_error_at_every_offset(frame):
    """Cut the encoding at every byte offset, as the WAL's torn-tail sweep
    cuts a segment: every proper prefix fails to decode with a
    ``TransportError`` — no ``struct.error`` leaks out of a decoder — and
    the whole encoding round-trips."""
    encoded = frame.encode()
    decode = type(frame).decode
    for cut in range(len(encoded)):
        with pytest.raises(TransportError):
            decode(encoded[:cut])
    assert decode(encoded).encode() == encoded


def test_a_batch_whose_report_is_short_is_a_transport_error():
    """The batch's length prefix is intact, the report inside it is cut."""
    report = ControlFrame(1, 0, {0: 7}).encode()[:-4]
    data = BATCH_HEADER.pack(KIND_CONTROL_BATCH, 1, 1) + struct.pack("!H", len(report))
    with pytest.raises(TransportError, match="truncated control frame"):
        ControlBatch.decode(data + report)
