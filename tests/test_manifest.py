"""The step recorder every command times its steps with."""

import pytest

from triscar import manifest
from triscar.manifest import Steps


def _peaks(monkeypatch, values):
    """Make peak_rss_mb return values in turn."""
    it = iter(values)
    monkeypatch.setattr(manifest, "peak_rss_mb", lambda: next(it))


def test_end_accumulates_by_name(monkeypatch):
    _peaks(monkeypatch, [10.0, 10.0, 14.0, 15.0, 15.0])
    steps = Steps()
    for step in ("a", "b", "a", "c"):
        steps.end(step)
    assert set(steps.seconds) == {"a", "b", "c"}
    assert all(s >= 0.0 for s in steps.seconds.values())
    assert steps.rises == {"a": 1.0, "b": 4.0, "c": 0.0}


def test_add_sums_by_name(monkeypatch):
    _peaks(monkeypatch, [0.0, 2.0, 3.0, 3.0, 7.0])
    one = Steps()
    one.end("a")                  # 0 -> 2
    two = Steps()
    two.end("a")                  # 3 -> 3
    two.end("b")                  # 3 -> 7
    seconds = {step: one.seconds.get(step, 0.0) + two.seconds.get(step, 0.0)
               for step in ("a", "b")}
    one.add(two)
    assert one.seconds == pytest.approx(seconds)
    assert one.rises == {"a": 2.0, "b": 4.0}
    assert two.rises == {"a": 0.0, "b": 4.0}


def test_no_rise_without_a_peak(monkeypatch):
    monkeypatch.setattr(manifest, "peak_rss_mb", lambda: None)
    steps = Steps()
    steps.end("a")
    steps.add(steps)
    assert set(steps.seconds) == {"a"}
    assert steps.rises == {}
