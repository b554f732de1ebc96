"""Metric arithmetic of the benchmark, kept free of I/O so it can be tested.

run.py feeds these with the raw samples the driver prints; test_harness.py
checks them on hand-made inputs.
"""

import math
import signal
import statistics

# Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n, p):
    """Samples of an n-sample set strictly above its nearest-rank p-th
    percentile."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n, wanted=99.0):
    """The highest ladder percentile, at most `wanted`, that has at least
    MIN_BEYOND of the n samples beyond it; the median when none has."""
    chosen = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if p <= wanted and samples_beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def percentile(values, p):
    """Nearest-rank p-th percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, wanted=99.0, independent=None):
    """(value, percentile used) for a tail metric under the ladder rule.
    `independent` is the number of independent samples when values come in
    groups that share one measurement (requests of one batch); by default
    every value is one."""
    p = tail_percentile(len(values) if independent is None else independent, wanted)
    return percentile(values, p), p


def median(values):
    return statistics.median(values) if values else 0.0


def due_time_latencies(due_ms, sent_ms, done_ms, ok):
    """Open-loop accounting. Latency runs from when a request was due, so a
    generator stall charges the wait to every request it delayed; lateness
    is how far behind its schedule the generator sent each request.
    Returns (latency of each ok request, lateness of each sent request)."""
    latency = [done - due for due, done, good in zip(due_ms, done_ms, ok) if good]
    late = [max(0.0, sent - due) for due, sent in zip(due_ms, sent_ms)]
    return latency, late


def slo_met_frac(latency_ms, sent, limit_ms):
    """Share of sent requests answered ok within the limit: a failed or
    refused request counts as missing it."""
    if sent <= 0:
        return 0.0
    return sum(1 for v in latency_ms if v <= limit_ms) / sent


def account(attempted, failed, returncode):
    """(attempted, failed, crash) for a finished child. A child killed by a
    signal counts every operation it attempted as failed, and at least one:
    the one it died in. `crash` names the signal, or is None."""
    if returncode is not None and returncode < 0:
        attempted = max(attempted, 1)
        try:
            name = signal.Signals(-returncode).name
        except ValueError:
            name = "signal %d" % -returncode
        return attempted, attempted, name
    return attempted, min(failed, attempted), None


def error_rate(attempted, failed):
    return failed / attempted if attempted > 0 else 1.0

