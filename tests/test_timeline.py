"""Tests for the execution-event timeline."""

from repro.engine.timeline import (
    Event,
    EventKind,
    Timeline,
    node_intervals,
)


def _timeline(entries):
    timeline = Timeline()
    for time, kind, group, node in entries:
        timeline.record(time, kind, group=group, node=node)
    return timeline


class TestTimeline:
    def test_sorted_orders_by_time(self):
        timeline = _timeline([
            (5.0, EventKind.GROUP_COMPLETED, 1, None),
            (1.0, EventKind.GROUP_STARTED, 1, None),
        ])
        assert [e.time for e in timeline.sorted()] == [1.0, 5.0]

    def test_count_and_of_kind(self):
        timeline = _timeline([
            (1.0, EventKind.NODE_FAILED, None, 0),
            (2.0, EventKind.NODE_FAILED, None, 1),
            (3.0, EventKind.QUERY_COMPLETED, None, None),
        ])
        assert timeline.count(EventKind.NODE_FAILED) == 2
        assert len(timeline.of_kind(EventKind.QUERY_COMPLETED)) == 1

    def test_len_and_iter(self):
        timeline = _timeline([(1.0, EventKind.GROUP_STARTED, 1, None)])
        assert len(timeline) == 1
        assert list(timeline)[0].kind is EventKind.GROUP_STARTED

    def test_pretty_respects_limit(self):
        timeline = _timeline([
            (float(i), EventKind.GROUP_STARTED, i, None) for i in range(5)
        ])
        assert len(timeline.pretty(limit=2).splitlines()) == 2

    def test_event_str_includes_fields(self):
        event = Event(time=1.5, kind=EventKind.NODE_FAILED, node=3)
        rendering = str(event)
        assert "node-failed" in rendering and "node=3" in rendering


class TestNodeIntervals:
    def test_single_clean_attempt(self):
        timeline = _timeline([
            (0.0, EventKind.GROUP_STARTED, 1, 0),
            (10.0, EventKind.GROUP_COMPLETED, 1, 0),
        ])
        intervals = node_intervals(timeline)
        assert len(intervals) == 1
        assert intervals[0].start == 0.0
        assert intervals[0].end == 10.0
        assert not intervals[0].wasted

    def test_failed_attempt_is_marked_wasted(self):
        timeline = _timeline([
            (0.0, EventKind.GROUP_STARTED, 1, 0),
            (4.0, EventKind.NODE_FAILED, None, 0),
            (5.0, EventKind.SHARE_RESTARTED, 1, 0),
            (15.0, EventKind.GROUP_COMPLETED, 1, 0),
        ])
        intervals = node_intervals(timeline)
        assert len(intervals) == 2
        wasted = [i for i in intervals if i.wasted]
        assert len(wasted) == 1
        assert wasted[0].end == 4.0
