import sys
import threading
import types

import pytest

import layers
from spanlog import (
    Recorder,
    Shims,
    Span,
    layer_totals,
    self_times,
    union_length,
)


def span(sid, parent, name, start, end):
    return Span(sid, parent, name, start, end, 0)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(-1, 1), (9, 12)], 0, 10) == 2
    assert union_length([(20, 30)], 0, 10) == 0
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 6.0),  # overlaps a: 1..6 counted once
        span(4, 1, "c", 8.0, 12.0),  # runs past the parent: clipped
        span(5, 2, "d", 1.5, 2.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 5 - 2)
    assert selfs[2] == pytest.approx(3 - 0.5)
    assert selfs[3] == pytest.approx(3)
    assert selfs[5] == pytest.approx(0.5)


def test_layer_totals_do_not_double_count_nested_same_layer():
    spans = [
        span(1, None, "x", 0.0, 4.0),
        span(2, 1, "x", 1.0, 2.0),
        span(3, None, "x", 5.0, 6.0),
    ]
    totals = layer_totals(spans)["x"]
    assert totals["calls"] == 3
    assert totals["seconds"] == pytest.approx(5.0)
    assert totals["self"] == pytest.approx(5.0)


def test_recorder_links_a_span_on_another_thread_to_its_cause():
    rec = Recorder({"handle": "call"})

    def serve():
        with rec.span("handle"):
            pass

    with rec.span("call"):
        worker = threading.Thread(target=serve)
        worker.start()
        worker.join()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["handle"].parent == by_name["call"].sid
    assert by_name["handle"].thread != by_name["call"].thread


def _target(x):
    return x + 1


class Dummy:
    @staticmethod
    def static(x):
        return x * 2

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)

    def plain(self, x):
        return x - 1


def test_shims_wrap_every_binding_and_restore_originals(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    pkg.target = _target
    sub.bound_at_import = _target
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    originals = {a: Dummy.__dict__[a] for a in ("static", "klass", "plain")}

    rec = Recorder()
    with Shims(rec, package="fakepkg") as shims:
        assert shims.function(_target, "t") == 2
        for attr in originals:
            shims.method(Dummy, attr, attr)
        assert pkg.target(1) == 2 and sub.bound_at_import(2) == 3
        assert Dummy.static(3) == 6
        assert Dummy.klass(4) == ("Dummy", 4)
        assert Dummy().plain(5) == 4
        with pytest.raises(LookupError):
            shims.function(lambda: None, "unbound")

    assert [s.name for s in rec.spans] == [
        "t", "t", "static", "klass", "plain"
    ]
    assert pkg.target is _target and sub.bound_at_import is _target
    for attr, original in originals.items():
        assert Dummy.__dict__[attr] is original


def test_layer_shims_restore_every_program_binding():
    import campaigns  # noqa: F401 - imports every layer module

    def snapshot():
        return {
            (name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "repro"
            for attr, value in vars(module).items()
        }

    from repro.core.randomizer import RandomizationBlock
    from repro.store import ContentStore

    classes = [RandomizationBlock, ContentStore]
    before = snapshot()
    class_before = [dict(vars(c)) for c in classes]
    with Shims(layers.new_recorder()) as shims:
        layers.install(shims)
        assert snapshot() != before
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert [dict(vars(c)) for c in classes] == class_before
