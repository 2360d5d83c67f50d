import itertools

import pytest

from perfbench.tracing import Probe, Span, Tracer, exclusive_times, instrument


def _spans():
    # root [0, 10] -> a [1, 3], b [4, 9] -> c [5, 6]
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 9.0, 0),
        Span("c", 5.0, 6.0, 2),
    ]


def test_self_time_is_duration_minus_child_coverage():
    assert exclusive_times(_spans()) == [3.0, 2.0, 4.0, 1.0]


def test_exclusive_time_subtracts_only_selected_descendants():
    spans = _spans()
    # excluding only c: root loses c's second, b loses c's second
    assert exclusive_times(spans, lambda s: s.name == "c") == [9.0, 2.0, 4.0, 1.0]
    # excluding b covers c too; c is not subtracted twice
    assert exclusive_times(spans, lambda s: s.name in ("b", "c")) == [5.0, 2.0, 4.0, 1.0]


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @staticmethod
    def helper(n):
        return n - 1


def test_instrument_records_nesting_and_restores():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    originals = (Toy.__dict__["outer"], Toy.__dict__["inner"], Toy.__dict__["helper"])
    probes = [
        Probe(Toy, "outer", "toy.outer", describe=lambda a, k, o: {"out": o}),
        Probe(Toy, "inner", "toy.inner", enter=lambda a, k: setattr(tracer, "request", "r1")),
        Probe(Toy, "helper", "toy.helper"),
    ]
    with instrument(tracer, probes):
        assert Toy().outer(3) == 7
        assert Toy.helper(5) == 4
    assert (Toy.__dict__["outer"], Toy.__dict__["inner"], Toy.__dict__["helper"]) == originals
    assert [s.name for s in tracer.spans] == ["toy.outer", "toy.inner", "toy.helper"]
    outer, inner, helper = tracer.spans
    assert inner.parent == 0 and outer.parent == -1 and helper.parent == -1
    assert inner.request == "r1" and outer.request is None
    assert outer.attrs == {"out": 7}
    assert outer.start < inner.start < inner.end < outer.end


class SubToy(Toy):
    pass


@pytest.mark.parametrize("owner, attr", [(Toy, "absent"), (SubToy, "inner")])
def test_instrument_refuses_a_probe_its_owner_does_not_define(owner, attr):
    original = Toy.__dict__["outer"]
    probes = [Probe(Toy, "outer", "toy.outer"), Probe(owner, attr, "toy.x")]
    with pytest.raises(AttributeError):
        with instrument(Tracer(), probes):
            pass
    assert Toy.__dict__["outer"] is original and "inner" not in vars(SubToy)


def test_instrument_restores_after_exception():
    tracer = Tracer()
    original = Toy.__dict__["inner"]
    with pytest.raises(ZeroDivisionError):
        with instrument(tracer, [Probe(Toy, "inner", "toy.inner")]):
            Toy().inner(1) / 0
    assert Toy.__dict__["inner"] is original
