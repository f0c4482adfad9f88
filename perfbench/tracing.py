"""Spans and counters around plkit's public functions, for traced passes.

Each wrapper is installed where the calling code looks the function up at
call time (a module attribute, a class attribute or a ``MODEL_CATALOG``
entry) and removed after the traced pass, so untraced passes run the code
unmodified. Nothing under ``src/`` changes.

Coarse functions get one span each: (name, start, end, parent) kept in
memory. Per-point functions, called once per sample, bin or polygon, get a
call counter and a summed duration instead. A span's self time is its
duration minus the time of the spans and per-point calls made inside it.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter, defaultdict
from time import perf_counter

from plkit import analysis, antenna, cli, ingest, models

# (owner, attribute, metric name); the metric name is the defining module
SPANS = [
    (ingest, "parse_testbed_log", "ingest.parse_testbed_log"),
    (ingest, "parse_scanner_log", "ingest.parse_scanner_log"),
    (ingest, "read_samples_csv", "ingest.read_samples_csv"),
    (ingest, "load_site_config", "ingest.load_site_config"),
    (antenna, "load_pattern_csv", "antenna.load_pattern_csv"),
    (cli, "load_polygons", "geo.load_polygons"),
    (analysis, "aggregate_bins", "analysis.aggregate_bins"),
    (analysis, "extract_path_loss", "analysis.extract_path_loss"),
    (analysis, "classify_los", "analysis.classify_los"),
    (analysis, "apply_exclusion_mask", "analysis.apply_exclusion_mask"),
    (analysis, "write_bins_csv", "analysis.write_bins_csv"),
    (analysis, "read_bins_csv", "analysis.read_bins_csv"),
    (analysis, "fit_log_distance", "analysis.fit_log_distance"),
    (analysis, "prediction_errors", "analysis.prediction_errors"),
    (analysis, "pair_bins_by_index", "analysis.pair_bins_by_index"),
    (analysis, "frequency_offset", "analysis.frequency_offset"),
    (analysis, "o2i_cdf", "analysis.o2i_cdf"),
    (models, "predict_series", "models.predict_series"),
]
POINTS = [
    (analysis, "to_local", "geo.to_local"),
    (analysis, "from_local", "geo.from_local"),
    (analysis, "point_in_ring", "geo.point_in_ring"),
    (analysis, "gain_at", "antenna.gain_at"),
    (models, "validity_warnings", "models.validity_warnings"),
    (models.LinkGeometry, "with_distance", "models.geometry"),
    (models.LinkGeometry, "with_distances", "models.geometry"),
]
MODULES = ("cli", "ingest", "antenna", "geo", "analysis", "models")


def _count_parse(counts, args, result):
    counts["ingest.rows"] += result.rows
    counts["ingest.samples"] += len(result.samples)
    counts["ingest.skipped"] += result.skipped
    counts["ingest.filtered"] += result.filtered


def _count_aggregate(counts, args, result):
    counts["analysis.aggregated_samples"] += len(args[0])
    counts["analysis.aggregates"] += len(result)


def _count_dropped(key):
    def post(counts, args, result):
        counts[key] += len(args[0]) - len(result)
    return post


def _count_length(key):
    def post(counts, args, result):
        counts[key] += len(result)
    return post


def _count_true(key):
    def post(counts, args, result):
        if result:
            counts[key] += 1
    return post


def _count_written(counts, args, result):
    counts["analysis.write_bins_csv.bytes"] += os.path.getsize(args[1])


def _count_in_validity(counts, args, result):
    if not result:
        counts["models.validity_warnings.in_validity"] += 1


# what each function's arguments and result add to the pass counters
POST = {
    "ingest.parse_testbed_log": _count_parse,
    "ingest.parse_scanner_log": _count_parse,
    "analysis.aggregate_bins": _count_aggregate,
    "analysis.extract_path_loss": _count_dropped("analysis.dropped_at_site"),
    "analysis.apply_exclusion_mask": _count_dropped("analysis.masked"),
    "analysis.write_bins_csv": _count_written,
    "analysis.read_bins_csv": _count_length("analysis.read_bins_csv.rows"),
    "analysis.pair_bins_by_index": _count_length("analysis.pairs"),
    "geo.point_in_ring": _count_true("geo.point_in_ring.hits"),
    "models.validity_warnings": _count_in_validity,
}


class Tracer:
    """Spans of all traced passes plus the totals of the current one."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass]
        self.pass_index = 0
        self._stack: list[list] = []  # open spans: [span index, child seconds]
        self._saved: list[tuple] = []
        self._points: dict[str, list] = {}  # per-point name -> [calls, seconds]
        self.counts = Counter()
        self.reset()

    def reset(self) -> None:
        """Start the totals of a new pass (spans are kept)."""
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self.counts.clear()
        for acc in self._points.values():
            acc[:] = [0, 0.0]

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        parent = self._stack[-1][0] if self._stack else None
        record = [name, perf_counter(), None, parent, self.pass_index]
        self.spans.append(record)
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = end = perf_counter()
            self._stack.pop()
            seconds = end - record[1]
            self.calls[name] += 1
            self.seconds[name] += seconds
            self.self_seconds[name] += seconds - frame[1]
            if self._stack:
                self._stack[-1][1] += seconds
        if name in POST:
            POST[name](self.counts, args, result)
        return result

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _point_wrapper(self, name, fn):
        """Count and time each call without a span; kept lean because some
        of these run hundreds of thousands of times per pass."""
        acc = self._points.setdefault(name, [0, 0.0])
        post = POST.get(name)
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            seconds = perf_counter() - start
            acc[0] += 1
            acc[1] += seconds
            if stack:
                stack[-1][1] += seconds
            if post is not None:
                post(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for owner, attr, name in POINTS:
            self._patch(owner, attr, self._point_wrapper(name, getattr(owner, attr)))
        for mid, info in list(models.MODEL_CATALOG.items()):
            if info.evaluate is not None:
                wrapped = self._point_wrapper("models.evaluate", info.evaluate)
                self._patch(models.MODEL_CATALOG, mid, dataclasses.replace(info, evaluate=wrapped))

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def pass_metrics(self, clamp_warnings: int) -> dict[str, float]:
        """Per-layer metrics of the current pass, named as in BENCHMARK.json."""
        s, own, calls, counts = self.seconds.copy(), self.self_seconds.copy(), self.calls.copy(), self.counts
        for name, (n, seconds) in self._points.items():
            calls[name] += n
            s[name] += seconds
            own[name] += seconds
        m: dict[str, float] = {}
        for cmd in ("bin", "fit", "compare", "offset", "o2i"):
            m[f"cli.{cmd}.s"] = s[f"cli.{cmd}"]
        for cmd in ("bin", "compare", "offset", "o2i"):
            m[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
        for _, _, name in SPANS:
            m[f"{name}.s"] = s[name]
        for name in ("analysis.aggregate_bins", "analysis.extract_path_loss",
                     "analysis.classify_los", "analysis.prediction_errors"):
            m[f"{name}.self_s"] = own[name]
        for name in ("geo.to_local", "geo.from_local", "geo.point_in_ring", "antenna.gain_at",
                     "models.evaluate", "models.geometry", "models.validity_warnings"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = s[name]
        for name in ("ingest.rows", "ingest.samples", "ingest.skipped", "ingest.filtered",
                     "analysis.dropped_at_site", "analysis.masked", "analysis.pairs",
                     "analysis.write_bins_csv.bytes", "analysis.read_bins_csv.rows"):
            m[name] = counts[name]
        m["ingest.sample_ratio"] = _ratio(counts["ingest.samples"], counts["ingest.rows"])
        m["analysis.samples_per_bin"] = _ratio(counts["analysis.aggregated_samples"],
                                               counts["analysis.aggregates"])
        m["geo.point_in_ring.hit_ratio"] = _ratio(counts["geo.point_in_ring.hits"],
                                                  calls["geo.point_in_ring"])
        m["models.in_validity_ratio"] = _ratio(counts["models.validity_warnings.in_validity"],
                                               calls["models.validity_warnings"])
        m["antenna.elevation_clamped"] = clamp_warnings
        for module in MODULES:
            m[f"{module}.self_s"] = sum((v for k, v in own.items() if k.split(".")[0] == module), 0.0)
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
