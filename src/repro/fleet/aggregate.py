"""Streaming result aggregation for measurement campaigns.

A 500-endpoint campaign must produce one report without buffering every
raw probe result in controller memory. The aggregator therefore keeps
only *mergeable* state:

- :class:`CounterSet` — named integer/float accumulators,
- :class:`QuantileSketch` — a log-bucketed distribution sketch (bounded
  size, exact count/sum/min/max, approximate quantiles with a fixed
  relative error set by the bucket growth factor),

rolled up twice: once per endpoint and once campaign-wide. Everything is
deterministic — same inputs in the same order produce byte-identical
JSON — which is what lets the fleet benchmark assert that two same-seed
campaign runs agree to the byte.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from functools import reduce
from itertools import repeat
from typing import Iterable, Optional

# Bucket boundaries grow by 10% per bucket: quantile estimates carry at
# most ~5% relative error, and a sketch spanning 1 ns .. 100 s needs only
# a few hundred buckets.
GROWTH = 1.1
_LOG_GROWTH = math.log(GROWTH)

# Version stamp for the JSONL export layout (jsonl_lines/export_jsonl).
# v2 added the stamp itself plus the full mergeable ``state`` of every
# rollup, making the export lossless: an ingester can reconstruct the
# aggregator (sketches included) and keep merging, which is what the
# results warehouse does.
AGGREGATE_SCHEMA_VERSION = 2


class QuantileSketch:
    """Log-bucketed streaming quantile sketch (mergeable, deterministic).

    Values are assigned to bucket ``floor(log(v) / log(GROWTH))``; a
    quantile query returns the geometric midpoint of the bucket holding
    the target rank. Non-positive values land in a dedicated underflow
    bucket reported as 0.0; ``+inf`` lands in no bucket, so a rank past
    the last bucket reports ``max``.
    """

    __slots__ = ("buckets", "underflow", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.underflow = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.underflow += 1
            return
        if value == math.inf:  # in count, sum and max; in no bucket
            return
        index = math.floor(math.log(value) / _LOG_GROWTH)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        """Batch ``observe``: the same state, a C-level pass per field."""
        values = list(values)
        if not values:
            return
        low, high = min(values), max(values)
        self.count += len(values)
        # Sequential addition, as observe does: 3.12's sum compensates.
        self.sum = reduce(operator.add, values, self.sum)
        self.min = low if self.min is None or low < self.min else self.min
        self.max = high if self.max is None or high > self.max else self.max
        positive = values if low > 0.0 else [v for v in values if v > 0.0]
        self.underflow += len(values) - len(positive)
        if high == math.inf:
            positive = [v for v in positive if v != math.inf]
        for index, count in Counter(map(math.floor, map(
                operator.truediv, map(math.log, positive),
                repeat(_LOG_GROWTH)))).items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def merge(self, other: "QuantileSketch") -> None:
        self.count += other.count
        self.sum += other.sum
        self.underflow += other.underflow
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 <= q <= 1); 0.0 on an empty sketch."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = self.underflow
        if seen >= target:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                # Geometric midpoint of [GROWTH**i, GROWTH**(i+1)).
                return GROWTH ** (index + 0.5)
        return self.max if self.max is not None else 0.0

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def state_dict(self) -> dict:
        """Full mergeable state (lossless, unlike the display dict)."""
        return {
            "buckets": [[index, self.buckets[index]]
                        for index in sorted(self.buckets)],
            "underflow": self.underflow,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        sketch = cls()
        sketch.buckets = {int(index): int(count)
                          for index, count in state.get("buckets", [])}
        sketch.underflow = int(state.get("underflow", 0))
        sketch.count = int(state.get("count", 0))
        sketch.sum = float(state.get("sum", 0.0))
        sketch.min = state.get("min")
        sketch.max = state.get("max")
        return sketch

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class CounterSet:
    """Named additive accumulators (mergeable)."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def merge(self, other: "CounterSet") -> None:
        for name, value in other.values.items():
            self.values[name] = self.values.get(name, 0) + value

    def get(self, name: str) -> float:
        return self.values.get(name, 0)

    def to_dict(self) -> dict:
        return {name: self.values[name] for name in sorted(self.values)}

    @classmethod
    def from_state(cls, state: dict) -> "CounterSet":
        counters = cls()
        counters.values = dict(state)
        return counters


class Rollup:
    """One aggregation scope: counters + a sketch per value stream."""

    __slots__ = ("counters", "sketches", "jobs", "failures")

    def __init__(self) -> None:
        self.counters = CounterSet()
        self.sketches: dict[str, QuantileSketch] = {}
        self.jobs = 0
        self.failures = 0

    def sketch(self, name: str) -> QuantileSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = QuantileSketch()
        return sketch

    def merge(self, other: "Rollup") -> None:
        self.jobs += other.jobs
        self.failures += other.failures
        self.counters.merge(other.counters)
        for name in other.sketches:
            self.sketch(name).merge(other.sketches[name])

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "failures": self.failures,
            "counters": self.counters.to_dict(),
            "values": {
                name: self.sketches[name].to_dict()
                for name in sorted(self.sketches)
            },
        }

    def state_dict(self) -> dict:
        """Lossless mergeable state (counters + raw sketch buckets)."""
        return {
            "jobs": self.jobs,
            "failures": self.failures,
            "counters": self.counters.to_dict(),
            "sketches": {
                name: self.sketches[name].state_dict()
                for name in sorted(self.sketches)
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "Rollup":
        rollup = cls()
        rollup.jobs = int(state.get("jobs", 0))
        rollup.failures = int(state.get("failures", 0))
        rollup.counters = CounterSet.from_state(state.get("counters") or {})
        for name, sketch_state in (state.get("sketches") or {}).items():
            rollup.sketches[name] = QuantileSketch.from_state(sketch_state)
        return rollup


def counters_fingerprint(metrics: Optional[dict]) -> str:
    """Canonical fingerprint of a job's counter metrics.

    Cross-validation compares redundant runs of the same job on
    different endpoints.  Value streams (RTTs) legitimately differ
    between vantage points, but the *counters* — probes sent, replies
    received, losses — describe what the endpoint claims happened and
    must agree; a fabricating endpoint shows up as the counter outlier.
    """
    counters = (metrics or {}).get("counters") or {}
    return json.dumps(counters, sort_keys=True, separators=(",", ":"))


def majority_fingerprint(
    fingerprints: Iterable[str],
) -> tuple[Optional[str], int]:
    """The most common fingerprint and its vote count (ties break on the
    smaller fingerprint string, keeping adjudication deterministic)."""
    votes: dict[str, int] = {}
    for fingerprint in fingerprints:
        votes[fingerprint] = votes.get(fingerprint, 0) + 1
    if not votes:
        return None, 0
    winner = min(votes, key=lambda fp: (-votes[fp], fp))
    return winner, votes[winner]


class ResultAggregator:
    """Streaming per-endpoint + campaign-level rollups.

    ``observe`` is called once per finished job with the job's extracted
    metrics; raw results are never retained. ``report`` produces a
    deterministic plain-dict summary, and ``export_jsonl`` streams it as
    one campaign line plus one line per endpoint.
    """

    def __init__(self, campaign: str = "campaign") -> None:
        self.campaign = campaign
        self.total = Rollup()
        self.per_endpoint: dict[str, Rollup] = {}
        self.jobs_observed = 0

    def endpoint(self, name: str) -> Rollup:
        rollup = self.per_endpoint.get(name)
        if rollup is None:
            rollup = self.per_endpoint[name] = Rollup()
        return rollup

    def fold_result(self, endpoint: str, ok: bool, counters: dict) -> None:
        """Fold one ``results`` row: the job, its failure, its counters."""
        self.jobs_observed += 1
        for rollup in (self.total, self.endpoint(endpoint)):
            rollup.jobs += 1
            if not ok:
                rollup.failures += 1
            for name, amount in counters.items():
                rollup.counters.add(name, amount)

    def fold_sample(self, endpoint: str, stream: str, value: float) -> None:
        """Fold one ``samples`` row into the stream's two sketches."""
        self.total.sketch(stream).observe(value)
        self.endpoint(endpoint).sketch(stream).observe(value)

    def merge(self, other: "ResultAggregator") -> None:
        self.jobs_observed += other.jobs_observed
        self.total.merge(other.total)
        for name, rollup in other.per_endpoint.items():
            self.endpoint(name).merge(rollup)

    def observe(self, endpoint_name: str, metrics: Optional[dict],
                failed: bool = False, job: Optional[str] = None,
                error: Optional[str] = None) -> None:
        """Fold one finished job into the rollups.

        ``metrics`` uses the campaign convention::

            {"counters": {name: amount, ...},
             "values": {stream: [floats], ...}}

        ``job``/``error`` identify the completion for subclasses that
        record per-job rows (the warehouse tee); the streaming rollups
        themselves ignore them.
        """
        metrics = metrics or {}
        self.fold_result(endpoint_name, not failed,
                         metrics.get("counters") or {})
        for stream, values in (metrics.get("values") or {}).items():
            # A stream the job names without a value (every probe lost)
            # still reports n=0; no row records that, so it is the one
            # thing a rebuild from segments cannot reproduce.
            self.total.sketch(stream)
            self.endpoint(endpoint_name).sketch(stream)
            for value in values:
                self.fold_sample(endpoint_name, stream, value)

    # -- export ---------------------------------------------------------------

    def report(self) -> dict:
        return {
            "campaign": self.campaign,
            "jobs_observed": self.jobs_observed,
            "aggregate": self.total.to_dict(),
            "endpoints": {
                name: self.per_endpoint[name].to_dict()
                for name in sorted(self.per_endpoint)
            },
        }

    def to_json(self) -> str:
        """Canonical (byte-stable) JSON encoding of the report."""
        return json.dumps(self.report(), sort_keys=True,
                          separators=(",", ":"))

    def jsonl_lines(self) -> list[str]:
        """One campaign line + one line per endpoint, schema-versioned.

        Key order is stable (``sort_keys``) and every line carries both
        the human-readable display dict and the lossless mergeable
        ``state``, so export → ingest → re-aggregate is an identity
        (see :meth:`from_jsonl_lines`).
        """
        lines = [json.dumps(
            {"record": "campaign", "schema_version": AGGREGATE_SCHEMA_VERSION,
             "campaign": self.campaign,
             "jobs_observed": self.jobs_observed,
             "aggregate": self.total.to_dict(),
             "state": self.total.state_dict()},
            sort_keys=True, separators=(",", ":"),
        )]
        for name in sorted(self.per_endpoint):
            lines.append(json.dumps(
                {"record": "endpoint",
                 "schema_version": AGGREGATE_SCHEMA_VERSION,
                 "campaign": self.campaign, "endpoint": name,
                 "state": self.per_endpoint[name].state_dict(),
                 **self.per_endpoint[name].to_dict()},
                sort_keys=True, separators=(",", ":"),
            ))
        return lines

    @classmethod
    def from_jsonl_lines(cls, lines: Iterable[str]) -> "ResultAggregator":
        """Reconstruct an aggregator from its own JSONL export."""
        aggregator = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            version = record.get("schema_version")
            if version != AGGREGATE_SCHEMA_VERSION:
                raise ValueError(
                    f"aggregate JSONL schema_version {version!r} "
                    f"(this reader speaks {AGGREGATE_SCHEMA_VERSION})"
                )
            kind = record.get("record")
            if kind == "campaign":
                aggregator.campaign = record["campaign"]
                aggregator.jobs_observed = int(record["jobs_observed"])
                aggregator.total = Rollup.from_state(record["state"])
            elif kind == "endpoint":
                aggregator.per_endpoint[record["endpoint"]] = \
                    Rollup.from_state(record["state"])
        return aggregator

    def export_jsonl(self, path: str) -> int:
        lines = self.jsonl_lines()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)
