#!/usr/bin/env python3
"""Metrics-exposition gate for CI.

Validates a Prometheus text-format dump produced by
``optselect loadtest --metrics-out FILE`` (or ``optselect stats
--format prom``), i.e. the output of obs::MetricsRegistry::
RenderPrometheus():

  1. the file is well-formed exposition text — every non-comment line
     is ``name{label="v",...} value`` with a legal metric name, legal
     label names, correctly quoted label values, and a finite value;
  2. every sample's base metric name (stripping the ``_sum`` /
     ``_count`` summary suffixes) was declared by a preceding
     ``# TYPE`` line, and no name is declared twice;
  3. the serving/router metrics the dashboards key on are present:
     ``optselect_serving_accepted_total``,
     ``optselect_serving_completed_total``,
     ``optselect_request_latency_seconds`` (with _sum/_count), and
     ``optselect_router_routed_total`` when --require-router;
  4. snapshot coherence: for every label set,
     completed <= accepted must hold — the registry reads effects
     before causes, so a violating dump means that ordering broke;
  5. with ``--require-stages``, the
     ``optselect_stage_latency_seconds`` summary must be present with
     a nonzero _count for every lifecycle stage label:
     queue_wait, cache_lookup, store_read, select, reply (a dump from
     a cache-on run, e.g. loadtest, so that cache_lookup ran).

Usage: check_metrics.py FILE [--require-stages] [--require-router]

Exit code 0 when clean, 1 with one line per finding otherwise.
"""

import argparse
import math
import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# name{labels} value  |  name value   (exposition has no timestamps here)
SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
TYPE_LINE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
                       r"(counter|gauge|summary|histogram|untyped)$")

REQUIRED = (
    "optselect_serving_accepted_total",
    "optselect_serving_completed_total",
    "optselect_request_latency_seconds",
    "optselect_request_latency_seconds_sum",
    "optselect_request_latency_seconds_count",
)
STAGES = ("queue_wait", "cache_lookup", "store_read", "select", "reply")


def parse_labels(raw, lineno, problems):
    """'a="x",b="y"' -> dict; label values may contain \\" \\\\ \\n."""
    labels = {}
    # Split on commas not preceded by an odd run of backslashes inside
    # quotes: simplest correct approach is a small scanner.
    i, n = 0, len(raw)
    while i < n:
        m = LABEL_NAME.match(raw[i:].split("=", 1)[0])
        eq = raw.find("=", i)
        if eq < 0 or m is None:
            problems.append(f"line {lineno}: bad label name in '{raw}'")
            return labels
        name = raw[i:eq]
        if not LABEL_NAME.match(name):
            problems.append(f"line {lineno}: bad label name '{name}'")
            return labels
        if eq + 1 >= n or raw[eq + 1] != '"':
            problems.append(f"line {lineno}: unquoted value for '{name}'")
            return labels
        j = eq + 2
        value = []
        while j < n:
            c = raw[j]
            if c == "\\" and j + 1 < n:
                value.append({"n": "\n", '"': '"', "\\": "\\"}.get(
                    raw[j + 1], raw[j + 1]))
                j += 2
                continue
            if c == '"':
                break
            value.append(c)
            j += 1
        if j >= n:
            problems.append(f"line {lineno}: unterminated value for '{name}'")
            return labels
        labels[name] = "".join(value)
        i = j + 1
        if i < n:
            if raw[i] != ",":
                problems.append(f"line {lineno}: expected ',' after "
                                f"'{name}' value")
                return labels
            i += 1
    return labels


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("--require-stages", action="store_true",
                        help="assert per-stage latency summaries (needs a "
                             "cache-on run, e.g. loadtest)")
    parser.add_argument("--require-router", action="store_true",
                        help="assert router metrics (needs a cluster run, "
                             "i.e. loadtest --shards >= 1)")
    args = parser.parse_args()

    with open(args.path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    problems = []
    declared = {}          # metric name -> type
    samples = []           # (name, labels, value)
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE"):
                m = TYPE_LINE.match(line)
                if not m:
                    problems.append(f"line {lineno}: malformed TYPE line")
                    continue
                name = m.group(1)
                if name in declared:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for '{name}'")
                declared[name] = m.group(2)
            continue  # HELP/other comments are fine
        m = SAMPLE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name, _, rawlabels, rawvalue = m.groups()
        base = name
        for suffix in ("_sum", "_count", "_bucket"):
            if base.endswith(suffix) and base[: -len(suffix)] in declared:
                base = base[: -len(suffix)]
                break
        if base not in declared:
            problems.append(
                f"line {lineno}: sample '{name}' has no preceding TYPE")
        labels = parse_labels(rawlabels, lineno, problems) if rawlabels \
            else {}
        try:
            value = float(rawvalue)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {rawvalue!r}")
            continue
        if not math.isfinite(value):
            problems.append(f"line {lineno}: non-finite value for '{name}'")
            continue
        if declared.get(base) == "counter" and value < 0:
            problems.append(f"line {lineno}: negative counter '{name}'")
        samples.append((name, labels, value))

    present = {s[0] for s in samples}
    for name in REQUIRED:
        if name not in present:
            problems.append(f"required metric missing: {name}")
    if args.require_router and "optselect_router_routed_total" not in present:
        problems.append("required metric missing: "
                        "optselect_router_routed_total")

    # Coherence: completed <= accepted per label set (effect <= cause).
    def by_labels(metric):
        return {tuple(sorted(l.items())): v
                for n, l, v in samples if n == metric}
    accepted = by_labels("optselect_serving_accepted_total")
    for key, completed in by_labels(
            "optselect_serving_completed_total").items():
        if key in accepted and completed > accepted[key]:
            problems.append(
                f"completed {completed:g} > accepted {accepted[key]:g} "
                f"for labels {dict(key)}")

    if args.require_stages:
        counts = {}
        for name, labels, value in samples:
            if name == "optselect_stage_latency_seconds_count":
                stage = labels.get("stage", "")
                counts[stage] = counts.get(stage, 0) + value
        for stage in STAGES:
            if counts.get(stage, 0) <= 0:
                problems.append(
                    f"stage '{stage}' has no recorded latency samples "
                    f"(the stage never ran)")

    for p in problems:
        print(p)
    print(f"checked {len(samples)} samples, {len(declared)} metrics, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
