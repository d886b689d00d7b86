"""Zero-dependency metric exporters: Prometheus text format and JSON lines.

Any ``stats()`` / ``snapshot()`` dict from the serving stack flattens into a
list of ``(metric_name, labels, value)`` samples, which then renders either
as Prometheus text exposition format or as one JSON object per line.  Both
renderers are driven off the same flattened list and both parse back to it
exactly, so the two export paths provably carry the same numbers.

A small CLI dumps a snapshot from a JSON file (or stdin), or boots a
checkpointed :class:`repro.serving.RoutingService`, runs a few probe
requests, and exports its live stats::

    python -m repro.obs.export --input snapshot.json --format prometheus
    python -m repro.obs.export --checkpoint ckpt/ --probe "How many singers?" \
        --format jsonl
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Iterable

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

Sample = tuple[str, dict, float]

#: Leaf field names whose values only ever go up (lifetime counters across
#: the serving / cluster / transport layers).  Samples ending in one of
#: these — or living under a ``counters`` dict — are typed ``counter`` in
#: the Prometheus rendering; everything else stays a ``gauge``.
_MONOTONIC_LEAVES = frozenset({
    "hits", "misses", "evictions", "invalidations",
    "completed", "errors", "failovers", "successes", "failures",
    "escalations", "questions",
    "shard_failures", "shards_timed_out", "partial_gathers",
    "requests_sent", "timeouts", "crashes", "respawns",
})


def _sanitize(part: str) -> str:
    """A snapshot key as a metric-name component (may come back empty)."""
    return _NAME_OK.sub("_", str(part)).strip("_")


def flatten_snapshot(snapshot: dict, prefix: str = "repro") -> list[Sample]:
    """Flatten a nested stats dict into ``(name, labels, value)`` samples.

    Numeric leaves become samples; nested dict keys extend the metric name
    unless they are not name-safe (empty after sanitizing, or digit-leading
    like the batch-size histogram's bucket keys), in which case the key
    becomes a label named after the enclosing field.  List items are
    labelled by index.  Strings and ``None`` are dropped -- exporters carry
    numbers, not configuration.

    A latency summary (a dict carrying both ``count`` and a ``buckets``
    sub-dict of cumulative counts keyed by upper bound, as
    :meth:`repro.serving.metrics.LatencyRecorder.summary` emits) additionally
    yields real Prometheus histogram series — ``{name}_seconds_bucket`` with
    ``le`` labels plus ``{name}_seconds_sum`` / ``{name}_seconds_count`` —
    so ``histogram_quantile()`` works on ingested data."""
    samples: list[Sample] = []

    def walk(name: str, leaf: str, labels: dict, value) -> None:
        if isinstance(value, bool):
            samples.append((name, labels, 1.0 if value else 0.0))
        elif isinstance(value, (int, float)):
            samples.append((name, labels, float(value)))
        elif isinstance(value, dict):
            buckets = value.get("buckets")
            histogram = isinstance(buckets, dict) and "count" in value
            if histogram:
                family = f"{name}_seconds"
                for bound, count in buckets.items():
                    samples.append((f"{family}_bucket",
                                    {**labels, "le": str(bound)}, float(count)))
                samples.append((f"{family}_sum", labels,
                                float(value.get("total_seconds", 0.0))))
                samples.append((f"{family}_count", labels,
                                float(value["count"])))
            for key, item in value.items():
                if histogram and key == "buckets":
                    continue  # already rendered as the _bucket series
                part = _sanitize(key)
                if part and not part[0].isdigit():
                    walk(f"{name}_{part}", part, labels, item)
                else:
                    walk(name, leaf, {**labels, leaf or "key": str(key)}, item)
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                walk(name, leaf,
                     {**labels, f"{leaf or 'item'}_index": str(index)}, item)
        # strings / None / other leaves carry no numeric value: skipped

    root = _sanitize(prefix) or "repro"
    for key, item in snapshot.items():
        part = _sanitize(key)
        if part and not part[0].isdigit():
            walk(f"{root}_{part}", part, {}, item)
        else:
            walk(root, "key", {"key": str(key)}, item)
    return samples


# -- Prometheus text format ----------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _histogram_families(samples: Iterable[Sample]) -> set[str]:
    """Family names that carry cumulative ``_bucket{le=...}`` series."""
    return {name[:-len("_bucket")] for name, labels, _ in samples
            if name.endswith("_bucket") and "le" in labels}


def _sample_type(name: str, families: set[str]) -> tuple[str, str]:
    """``(type_name, metric_type)`` of one sample.

    Histogram members (``_bucket`` / ``_sum`` / ``_count`` of a family that
    has bucket series) are typed once under the family name; monotonic
    counters are typed ``counter``; everything else is a ``gauge``."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[:-len(suffix)] in families:
            return name[:-len(suffix)], "histogram"
    if "_counters_" in name or any(name.endswith(f"_{leaf}")
                                   for leaf in _MONOTONIC_LEAVES):
        return name, "counter"
    return name, "gauge"


def to_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a snapshot in Prometheus text exposition format.

    Values print via ``repr(float(...))`` so parsing the text back yields
    bit-identical floats (the round-trip contract with the JSON exporter).
    ``# TYPE`` lines are semantically honest: lifetime counters are typed
    ``counter``, latency-recorder bucket series are typed ``histogram``
    (one line per family, covering its ``_bucket``/``_sum``/``_count``),
    and everything else stays ``gauge``."""
    samples = flatten_snapshot(snapshot, prefix=prefix)
    families = _histogram_families(samples)
    lines: list[str] = []
    typed: set[str] = set()
    for name, labels, value in samples:
        type_name, metric_type = _sample_type(name, families)
        if type_name not in typed:
            typed.add(type_name)
            lines.append(f"# TYPE {type_name} {metric_type}")
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(str(labels[key]))}"'
                for key in sorted(labels))
            lines.append(f"{name}{{{rendered}}} {float(value)!r}")
        else:
            lines.append(f"{name} {float(value)!r}")
    return "\n".join(lines) + "\n"


_SERIES = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
                     r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[Sample]:
    """Parse text exposition format back into samples (inverse of render)."""
    samples: list[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SERIES.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels = {key: _unescape_label(raw)
                  for key, raw in _LABEL.findall(match.group("labels") or "")}
        samples.append((match.group("name"), labels, float(match.group("value"))))
    return samples


# -- JSON lines ----------------------------------------------------------------
def to_json_lines(snapshot: dict, prefix: str = "repro") -> str:
    """Render a snapshot as one ``{"name", "labels", "value"}`` per line."""
    lines = [
        json.dumps({"name": name, "labels": labels, "value": float(value)},
                   sort_keys=True)
        for name, labels, value in flatten_snapshot(snapshot, prefix=prefix)
    ]
    return "\n".join(lines) + "\n"


def parse_json_lines(text: str) -> list[Sample]:
    samples: list[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        samples.append((record["name"],
                        {str(k): str(v) for k, v in record["labels"].items()},
                        float(record["value"])))
    return samples


# -- CLI -----------------------------------------------------------------------
def _load_snapshot(args: argparse.Namespace) -> dict:
    if args.checkpoint is not None:
        from repro.serving import RoutingService

        service = RoutingService.from_checkpoint(args.checkpoint)
        try:
            for question in args.probe:
                service.submit(question)
            return service.stats()
        finally:
            service.close()
    if args.input == "-":
        return json.load(sys.stdin)
    with open(args.input, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Export a serving-stack stats snapshot as Prometheus "
                    "text format or JSON lines.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH",
                        help="snapshot JSON file to export ('-' for stdin)")
    source.add_argument("--checkpoint", metavar="DIR",
                        help="boot a RoutingService from this checkpoint and "
                             "export its live stats")
    parser.add_argument("--probe", action="append", default=[], metavar="QUESTION",
                        help="question to submit before snapshotting "
                             "(repeatable; only with --checkpoint)")
    parser.add_argument("--format", choices=("prometheus", "jsonl"),
                        default="prometheus")
    parser.add_argument("--prefix", default="repro",
                        help="metric-name prefix (default: repro)")
    args = parser.parse_args(argv)
    if args.probe and args.checkpoint is None:
        parser.error("--probe requires --checkpoint")

    snapshot = _load_snapshot(args)
    render = to_prometheus if args.format == "prometheus" else to_json_lines
    sys.stdout.write(render(snapshot, prefix=args.prefix))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
