"""Versioned object-store tests."""

import pytest

from repro.errors import StorageError
from repro.storage import AppendLog, ObjectStore


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(clock):
    return ObjectStore(clock)


def test_put_then_get(store):
    version = store.put("k", b"v1")
    assert version.version == 1
    assert store.get("k").value == b"v1"


def test_versions_are_per_key_and_monotonic(store):
    store.put("a", b"1")
    store.put("b", b"x")
    v = store.put("a", b"2")
    assert v.version == 2
    assert store.get("b").version == 1


def test_get_unknown_key(store):
    with pytest.raises(StorageError):
        store.get("missing")


def test_invalid_arguments(store):
    with pytest.raises(StorageError):
        store.put("", b"v")
    with pytest.raises(StorageError):
        store.put("k", "not-bytes")


def test_get_version_history(store):
    store.put("k", b"v1")
    store.put("k", b"v2")
    history = store.history("k")
    assert [(v.version, v.value) for v in history] == [(1, b"v1"), (2, b"v2")]
    assert store.history("missing") == []


def test_get_by_time(store, clock):
    clock.now = 1.0
    store.put("k", b"old")
    clock.now = 5.0
    store.put("k", b"new")
    assert store.get_by_time("k", 1.0).value == b"old"
    assert store.get_by_time("k", 4.0).value == b"old"
    assert store.get_by_time("k", 5.0).value == b"new"
    assert store.get_by_time("k", 100.0).value == b"new"
    with pytest.raises(StorageError):
        store.get_by_time("k", 0.5)


def test_keys_lists_each_key_once(store):
    store.put("a", b"1")
    store.put("b", b"2")
    store.put("a", b"3")
    assert store.keys() == ["a", "b"]
    assert store.contains("a") and not store.contains("c")


def test_watchers_see_every_mutation(store):
    events = []
    store.watch(lambda key, version: events.append((key, version.version)))
    store.put("k", b"1")
    store.put("k", b"2")
    store.put("other", b"x")
    store.put("k", b"3")
    assert events == [("k", 1), ("k", 2), ("other", 1), ("k", 3)]


def test_log_replay_restores_state(tmp_path, clock):
    path = tmp_path / "os.log"
    store = ObjectStore(clock, log=AppendLog(path))
    clock.now = 2.5
    store.put("k", b"v1")
    store.put("k", b"v2")
    store.put("other", b"x")
    store._log.close()

    recovered = ObjectStore(FakeClock(), log=AppendLog(path))
    assert recovered.get("k").value == b"v2"
    assert recovered.get("k").version == 2
    assert recovered.keys() == ["k", "other"]
    # Timestamps come from the log, not the new clock.
    assert recovered.get("k").timestamp == 2.5
