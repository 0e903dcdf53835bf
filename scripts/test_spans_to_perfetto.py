"""Self-tests for spans_to_perfetto.py on canned event lists.

Run: python3 -m unittest discover -s scripts
"""

import contextlib
import io
import unittest

import spans_to_perfetto as s2p


def instant(event, ts, tid=0, **args):
    ev = {"name": event, "ph": "i", "s": "t", "pid": 3, "tid": tid,
          "ts": ts}
    if args:
        ev["args"] = args
    return ev


def sample(ts, epoch, accesses, misses, buckets):
    """One epoch sample: its "metrics" counter and "epoch" instant."""
    cycle = round(ts * 2700)
    return [
        {"name": "metrics", "ph": "C", "pid": 3, "tid": 0, "ts": ts,
         "args": {"dramAccesses": accesses, "dramMisses": misses}},
        instant("epoch", ts, epoch=epoch, cycle=cycle,
                hists={"tenant.a.queueLat": {
                    "count": sum(buckets), "sum": 0, "max": 1 << 20,
                    "buckets": buckets}}),
    ]


def trace(*extra):
    """A minimal valid trace of one run at 2.7 GHz; @extra events go
    between the last epoch sample and run_end."""
    return [
        {"name": "thread_name", "ph": "M", "pid": 3, "tid": 1,
         "args": {"name": "resize"}},
        instant("run_info", 0, label="w/Banshee", coreFreqHz=2.7e9),
        instant("tenant", 0, id=0, name="a"),
        instant("measure_start", 1.0),
        *sample(1.0, 0, 100.0, 10.0, [0, 4]),
        *sample(2.0, 1, 200.0, 60.0, [0, 4, 0, 10]),
        *sample(3.0, 2, 200.0, 60.0, [0, 4, 0, 10]),
        *extra,
        instant("run_end", 3.0, ipc=0.5),
    ]


def problems(events):
    return "\n".join(s2p.check("t.json", events))


class CheckTest(unittest.TestCase):
    def test_canned_trace_is_valid(self):
        self.assertEqual(problems(trace()), "")

    def test_rejects_unclosed_span(self):
        opened = {"name": "resize", "ph": "B", "pid": 3, "tid": 1,
                  "ts": 2.0}
        self.assertIn("'resize' never closed", problems(trace(opened)))

    def test_rejects_async_end_before_begin(self):
        ev = {"name": "fetch", "pid": 1, "tid": 0, "cat": "page 0x1",
              "id": "7"}
        got = problems(trace(dict(ev, ph="e", ts=2.0),
                             dict(ev, ph="b", ts=2.5)))
        self.assertIn("'e' before its 'b'", got)

    def test_rejects_non_numeric_counter(self):
        events = trace()
        events[4] = dict(events[4], args={"dramAccesses": "many"})
        self.assertIn("non-numeric arg", problems(events))

    def test_rejects_decreasing_counter_ts(self):
        late = {"name": "metrics", "ph": "C", "pid": 3, "tid": 0,
                "ts": 2.5, "args": {"dramAccesses": 1.0}}
        self.assertIn("counter 'metrics': ts 2.5 after 3.0",
                      problems(trace(late)))

    def test_rejects_second_run_end(self):
        self.assertIn("2 'run_end' events, want 1",
                      problems(trace(instant("run_end", 3.0))))


class TimelineTest(unittest.TestCase):
    def test_delta_percentile_of_empty_epoch_is_none(self):
        h = {"count": 4, "max": 1, "buckets": [0, 4]}
        self.assertIsNone(s2p.delta_percentile(h, h, 0.95))

    def test_delta_percentile_marks_top_bucket_read(self):
        # The top bucket is the last one of the snapshot's list.
        prev = {"buckets": [0, 4]}
        cur = {"max": 1 << 20, "buckets": [0, 4, 0, 10]}
        self.assertEqual(s2p.delta_percentile(prev, cur, 0.95), "7!")
        below = {"max": 9, "buckets": [0, 10, 0, 0, 1]}
        self.assertEqual(s2p.delta_percentile(None, below, 0.5), "1")

    def test_rows_and_resize_events(self):
        truncated = {"name": "resize", "ph": "E", "pid": 3, "tid": 1,
                     "ts": 3.0, "args": {"truncated": 1}}
        events = trace(
            instant("decision", 2.0, tid=1, reason="schedule"),
            {"name": "resize", "ph": "B", "pid": 3, "tid": 1, "ts": 2.0,
             "args": {"from": 8, "to": 6}},
            {"name": "resize", "ph": "E", "pid": 3, "tid": 1,
             "ts": 2.5, "args": {"activeSlices": 6}},
            instant("quota", 2.5, tid=2, slices=3),
        ) + [truncated]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            s2p.timeline("t.json", events, csv=False)
        lines = out.getvalue().splitlines()
        self.assertEqual(lines[0], "== w/Banshee")
        # Epoch 2 recorded nothing: no miss rate, no percentile.
        self.assertEqual(lines[2].split(), ["1", "5400", "0.5000", "7!"])
        self.assertEqual(lines[3].split(), ["2", "8100", "0.0000"])
        # Only the resize track and run_end are listed; the span the
        # run ended inside has no commit.
        self.assertEqual(lines[4:], [
            "  events:",
            "    cycle         5400  decision         reason=schedule",
            "    cycle         5400  resize_start     from=8 to=6",
            "    cycle         6750  resize_commit    activeSlices=6",
            "    cycle         8100  run_end          ipc=0.5",
            "",
        ])


if __name__ == "__main__":
    unittest.main()
