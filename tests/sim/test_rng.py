"""Unit tests for the named RNG registry."""

from repro.sim.rng import RngRegistry


def test_same_seed_and_name_give_same_sequence():
    a = RngRegistry(7).stream("link:a->b")
    b = RngRegistry(7).stream("link:a->b")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_give_independent_sequences():
    reg = RngRegistry(7)
    a = reg.stream("a")
    b = reg.stream("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x")
    b = RngRegistry(2).stream("x")
    assert a.random() != b.random()


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")
