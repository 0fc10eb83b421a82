"""The benchmark's own logic: summaries, span arithmetic and output checks."""

import copy
import os
import time

import pytest

from checks import analyze_fields, differences, load_reference
from speed import MIN_SAMPLES, REFERENCE_S, SpeedProbe, pinned, probe_cpu
from stats import summarize
from tracing import inclusive_time, self_times


class TestSummarize:
    def test_median_and_quartiles(self):
        s = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
        assert s["median"] == 3.0
        assert s["n"] == 5
        assert s["q1"] <= s["median"] <= s["q3"]
        assert (s["q1"], s["q3"]) == (1.5, 4.5)

    def test_single_sample(self):
        assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}

    def test_tail_percentile_needs_ten_samples_beyond_it(self):
        assert "p90" not in summarize([float(i) for i in range(99)])
        s = summarize([float(i) for i in range(100)])
        assert "p90" in s and "p99" not in s
        assert "p99" in summarize([float(i) for i in range(1000)])

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSpans:
    # [name, parent index or -1, start, end]
    SPANS = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 3.0],
        ["c", 0, 5.0, 9.0],
        ["d", 2, 6.0, 7.0],
        ["a", 2, 7.0, 8.0],   # recursion: "a" inside "a"
    ]

    def test_self_time_subtracts_direct_children_only(self):
        assert self_times(self.SPANS) == [4.0, 2.0, 2.0, 1.0, 1.0]

    def test_self_times_sum_to_top_level_wall(self):
        assert sum(self_times(self.SPANS)) == 10.0

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [["p", -1, 0.0, 10.0], ["x", 0, 2.0, 6.0], ["y", 0, 4.0, 8.0],
                 ["z", 0, 9.0, 12.0]]
        assert self_times(spans)[0] == 10.0 - 6.0 - 1.0

    def test_inclusive_counts_outermost_span_of_a_group(self):
        assert inclusive_time(self.SPANS, ["a"]) == 10.0
        assert inclusive_time(self.SPANS, ["c", "d"]) == 4.0
        assert inclusive_time(self.SPANS, ["b", "d"]) == 3.0
        assert inclusive_time(self.SPANS, ["missing"]) == 0.0


def report_from_fields(fields: dict) -> dict:
    """An analysis report shaped like the CLI's, carrying the given fields."""
    return {
        "kind": "analysis-report",
        "config": {"analyze": {"sample_seed": 0}},
        "generated_at": "2026-01-01T00:00:00+00:00",
        "system_digest": fields["system_digest"],
        "depth": fields["depth"],
        "dimensions": [{"n": n, "dim": d, "cumulative": c, "entropy_partial": e}
                       for n, d, c, e in fields["dimensions"]],
        "sandwich": fields["sandwich"],
        "recurrence": {"passed": fields["recurrence_passed"], "seed": 0, "entries": []},
        "aperiodicity": fields["aperiodicity"],
        "minimal_forbidden": {"max_len": 6, **fields["minimal_forbidden"]},
        "entropy": {},
        "submultiplicative_violations": [],
        "hard_assertions_pass": fields["hard_assertions_pass"],
    }


class TestOutputCheck:
    @pytest.fixture
    def expected(self):
        return load_reference("analyze-d7", "full")["measured"][0]

    def test_reference_holds_the_seed_values(self, expected):
        assert expected["system_digest"].startswith("sha256:700e4022")
        assert expected["dimensions"][43][:3] == [44, 177035, 1457820]

    def test_unchanged_report_passes(self, expected):
        assert differences(expected, analyze_fields(0, report_from_fields(expected))) == []

    def test_ignored_fields_may_change(self, expected):
        report = report_from_fields(expected)
        report["generated_at"] = "2030-05-05T05:05:05+00:00"
        report["config"]["analyze"]["sample_seed"] = 99
        report["recurrence"]["seed"] = 99
        report["metrics"] = {"count_s": 1.0}
        assert differences(expected, analyze_fields(0, report)) == []

    def test_altered_dimension_row_fails(self, expected):
        report = report_from_fields(expected)
        report["dimensions"][43]["dim"] += 1
        problems = differences(expected, analyze_fields(0, report))
        assert problems == ["/dimensions/43/1: 177036 != 177035"]

    @pytest.mark.parametrize("mutate", [
        lambda r: r.update(system_digest="sha256:0"),
        lambda r: r["dimensions"].pop(),
        lambda r: r["sandwich"][0].update(hard_ok=False),
        lambda r: r["aperiodicity"].update(first_stall=3),
        lambda r: r["minimal_forbidden"]["words"].append("aaaaaaa"),
        lambda r: r.update(hard_assertions_pass=False),
        lambda r: r["recurrence"].update(passed=False),
    ])
    def test_other_mutations_fail(self, expected, mutate):
        report = copy.deepcopy(report_from_fields(expected))
        mutate(report)
        assert differences(expected, analyze_fields(0, report))

    def test_nonzero_exit_fails(self, expected):
        assert differences(expected, analyze_fields(1, None))

    def test_type_change_fails(self):
        assert differences({"x": 1}, {"x": True}) == ["/x: True != 1"]


class TestSpeedProbe:
    @pytest.fixture
    def probe(self):
        probe = SpeedProbe(probe_cpu())   # never started: samples are set by hand
        probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        probe.times = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S,
                       4 * REFERENCE_S, 4 * REFERENCE_S]
        return probe

    def test_factor_is_mean_speed_in_the_window(self, probe):
        assert probe.factor(1.5, 4.5) == pytest.approx((1 / 2 + 1 / 2 + 1 / 4) / 3)

    def test_short_window_uses_the_latest_samples(self, probe):
        assert MIN_SAMPLES == 3
        assert probe.factor(4.5, 4.6) == pytest.approx((1 / 2 + 1 / 2 + 1 / 4) / 3)

    def test_no_samples_is_an_error(self):
        with pytest.raises(RuntimeError):
            SpeedProbe(probe_cpu()).factor(0.0, 1.0)

    def test_probe_samples_and_stops(self):
        with SpeedProbe(probe_cpu()) as probe:
            while len(probe.times) < 2:
                time.sleep(0.01)
        assert probe.times[0] > 0 and not probe._thread.is_alive()

    def test_pinned_restores_affinity(self):
        before = os.sched_getaffinity(0)
        with pinned(probe_cpu()):
            assert os.sched_getaffinity(0) == {max(before)}
        assert os.sched_getaffinity(0) == before
