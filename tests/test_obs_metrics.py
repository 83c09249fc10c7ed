"""Golden-file tests for the Prometheus text exposition renderer.

The exposition body is a wire format scraped by a real Prometheus —
these tests pin it byte-for-byte: HELP/TYPE headers, label escaping
and ordering, histogram ``_bucket``/``_sum``/``_count`` invariants,
and numeric formatting (``+Inf``, integers without ``.0``).
"""

import math
import threading

import pytest

from repro.analysis.accountant import PrivacyAccountant
from repro.obs.metrics import (
    CONTENT_TYPE_LATEST,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_value,
)


class TestNameValidation:
    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "help")
        with pytest.raises(ValueError):
            registry.counter("0leading", "help")
        with pytest.raises(ValueError):
            registry.counter("__reserved", "help")

    def test_invalid_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("ok_name", "help", labels=("bad-label",))
        with pytest.raises(ValueError):
            registry.counter("ok_name", "help", labels=("__reserved",))
        with pytest.raises(ValueError):
            registry.histogram("ok_hist", "help", labels=("le",))
        with pytest.raises(ValueError):
            registry.counter("ok_dupe", "help", labels=("a", "a"))

    def test_colons_allowed_in_metric_names(self):
        registry = MetricsRegistry()
        registry.counter("ns:metric_total", "recording-rule style")
        assert "ns:metric_total" in registry.render()


class TestValueFormatting:
    def test_integers_render_without_decimal_point(self):
        assert format_value(3.0) == "3"
        assert format_value(0.0) == "0"
        assert format_value(-2.0) == "-2"

    def test_floats_render_with_full_precision(self):
        assert format_value(0.005) == "0.005"
        assert float(format_value(1 / 3)) == 1 / 3

    def test_special_values_spelled_the_prometheus_way(self):
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"


class TestCounterGolden:
    def test_unlabelled_counter_exposition(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things seen.")
        counter.inc()
        counter.inc(2)
        assert registry.render() == (
            "# HELP repro_things_total Things seen.\n"
            "# TYPE repro_things_total counter\n"
            "repro_things_total 3\n"
        )

    def test_labelled_counter_children_sorted_by_value(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_req_total", "Requests.", labels=("endpoint", "status")
        )
        # Created out of order: rendering must sort children.
        counter.labels(endpoint="/spec", status="200").inc()
        counter.labels(endpoint="/report", status="429").inc(4)
        counter.labels(endpoint="/report", status="200").inc(2)
        assert registry.render() == (
            "# HELP repro_req_total Requests.\n"
            "# TYPE repro_req_total counter\n"
            'repro_req_total{endpoint="/report",status="200"} 2\n'
            'repro_req_total{endpoint="/report",status="429"} 4\n'
            'repro_req_total{endpoint="/spec",status="200"} 1\n'
        )

    def test_counter_rejects_decrease(self):
        counter = Counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_live_counter_renders_what_its_source_holds(self):
        state = {"a": 2}
        registry = MetricsRegistry()
        counter = registry.counter("repro_live_total", "l", labels=("k",))
        counter.labels(k="a").set_function(lambda: state["a"])
        state["a"] = 5
        assert 'repro_live_total{k="a"} 5' in registry.render()
        assert counter.value == 5

    def test_labelled_family_value_is_sum_of_children(self):
        counter = Counter("repro_y_total", "y", labels=("k",))
        counter.labels(k="a").inc(3)
        counter.labels(k="b").inc(4)
        assert counter.value == 7


class TestEscaping:
    def test_label_values_escape_backslash_quote_newline(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_g", "g", labels=("k",))
        gauge.labels(k='sp"am\\eggs\nham').set(1)
        assert (
            'repro_g{k="sp\\"am\\\\eggs\\nham"} 1' in registry.render()
        )

    def test_help_escapes_backslash_and_newline_only(self):
        registry = MetricsRegistry()
        registry.counter("repro_h_total", 'multi\nline "quoted" \\slash')
        text = registry.render()
        # Newlines and backslashes escaped; quotes stay literal in HELP.
        assert (
            "# HELP repro_h_total "
            'multi\\nline "quoted" \\\\slash\n'
        ) in text

    def test_escaped_output_stays_one_line_per_sample(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_nl", "a\nb", labels=("k",))
        gauge.labels(k="x\ny").set(1)
        for line in registry.render().splitlines():
            assert "\n" not in line  # splitlines already guarantees it
        assert len(registry.render().splitlines()) == 3


class TestHistogramGolden:
    def test_exact_exposition_with_custom_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 0.5, 1.0)
        )
        for value in (0.05, 0.05, 0.3, 0.7, 3.0):
            hist.observe(value)
        assert registry.render() == (
            "# HELP repro_lat_seconds Latency.\n"
            "# TYPE repro_lat_seconds histogram\n"
            'repro_lat_seconds_bucket{le="0.1"} 2\n'
            'repro_lat_seconds_bucket{le="0.5"} 3\n'
            'repro_lat_seconds_bucket{le="1"} 4\n'
            'repro_lat_seconds_bucket{le="+Inf"} 5\n'
            "repro_lat_seconds_sum 4.1\n"
            "repro_lat_seconds_count 5\n"
        )

    def test_buckets_are_cumulative_and_inf_always_present(self):
        hist = Histogram("repro_h2", "h", buckets=(1.0, 2.0))
        hist.observe(5.0)  # lands only in +Inf
        lines = "\n".join(hist.render())
        assert 'repro_h2_bucket{le="1"} 0' in lines
        assert 'repro_h2_bucket{le="2"} 0' in lines
        assert 'repro_h2_bucket{le="+Inf"} 1' in lines
        assert "repro_h2_count 1" in lines

    def test_observation_on_bucket_boundary_counts_le(self):
        # le is <=: an observation exactly at a bound belongs in it.
        hist = Histogram("repro_h3", "h", buckets=(1.0,))
        hist.observe(1.0)
        assert 'repro_h3_bucket{le="1"} 1' in "\n".join(hist.render())

    def test_explicit_inf_bound_is_collapsed(self):
        hist = Histogram("repro_h4", "h", buckets=(1.0, math.inf))
        hist.observe(0.5)
        rendered = "\n".join(hist.render())
        assert rendered.count('le="+Inf"') == 1

    def test_set_function_matches_loop_of_observe(self):
        """A histogram reading the accountant's spend buckets renders
        what observing each user's spend one at a time renders; values
        on a bound (``le`` is <=) included."""
        values = [0.01 * i for i in range(1, 200)] + [
            *DEFAULT_BUCKETS[:10], 5.0, 12.0, 0.1,
        ]
        accountant = PrivacyAccountant(lifetime_epsilon=20.0)
        for i, value in enumerate(values):
            accountant.charge(f"u{i}", value)
        live = Histogram("repro_h", "h", buckets=DEFAULT_BUCKETS)
        live.set_function(lambda: accountant.spend_buckets(DEFAULT_BUCKETS))
        loop = Histogram("repro_h", "h", buckets=DEFAULT_BUCKETS)
        for value in values:
            loop.observe(value)
        assert live.render() == loop.render()
        assert live.count == len(values)
        # A live read follows the state it reads.
        accountant.charge("u0", 12.0)
        assert live.render() != loop.render()
        assert live.count == len(values)

    def test_labelled_histogram_label_ordering(self):
        hist = Histogram(
            "repro_hl_seconds", "h", labels=("campaign",), buckets=(1.0,)
        )
        hist.labels(campaign="abc").observe(0.5)
        lines = hist.render()
        # Declared label first, le last — fixed order within the braces.
        assert (
            'repro_hl_seconds_bucket{campaign="abc",le="1"} 1' in lines
        )
        assert 'repro_hl_seconds_sum{campaign="abc"} 0.5' in lines
        assert 'repro_hl_seconds_count{campaign="abc"} 1' in lines

    def test_rejects_unsorted_or_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("repro_bad", "b", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("repro_bad", "b", buckets=())
        with pytest.raises(ValueError):
            Histogram("repro_bad", "b", buckets=(math.inf,))


class TestGauge:
    def test_set(self):
        gauge = Gauge("repro_depth", "d")
        gauge.set(5)
        assert gauge.value == 5.0

    def test_callback_gauge_is_live(self):
        state = {"depth": 1}
        gauge = Gauge("repro_live", "d")
        gauge.set_function(lambda: state["depth"])
        assert gauge.value == 1.0
        state["depth"] = 7
        assert "repro_live 7" in "\n".join(gauge.render())


class TestRegistry:
    def test_registration_is_idempotent_when_schema_agrees(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_same_total", "same", labels=("k",))
        b = registry.counter("repro_same_total", "same", labels=("k",))
        assert a is b

    def test_registration_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("repro_conflict", "one")
        with pytest.raises(ValueError):
            registry.gauge("repro_conflict", "one")  # type differs
        with pytest.raises(ValueError):
            registry.counter("repro_conflict", "two")  # help differs
        with pytest.raises(ValueError):
            registry.counter("repro_conflict", "one", labels=("k",))

    def test_families_render_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("repro_z_total", "z")
        registry.counter("repro_a_total", "a")
        text = registry.render()
        assert text.index("repro_z_total") < text.index("repro_a_total")

    def test_sample_reads_one_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_s_total", "s", labels=("k",))
        counter.labels(k="x").inc(3)
        assert registry.sample("repro_s_total", {"k": "x"}) == 3.0
        assert registry.sample("repro_s_total", {"k": "missing"}) is None
        assert registry.sample("repro_absent") is None

    def test_render_is_deterministic(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_d_seconds", "d", labels=("e",))
        hist.labels(e="/b").observe(0.2)
        hist.labels(e="/a").observe(0.1)
        assert registry.render() == registry.render()

    def test_empty_registry_renders_empty_string(self):
        assert MetricsRegistry().render() == ""

    def test_content_type_is_exposition_v0_0_4(self):
        assert CONTENT_TYPE_LATEST == (
            "text/plain; version=0.0.4; charset=utf-8"
        )


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        counter = Counter("repro_t_total", "t")
        hist = Histogram("repro_t_seconds", "t", buckets=(0.5,))

        def work():
            for _ in range(1000):
                counter.inc()
                hist.observe(0.1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
        assert hist.count == 8000
