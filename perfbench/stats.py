"""The benchmark's arithmetic: percentiles, quartiles and the A/B verdict.

Kept free of I/O so that test_stats.py can check it on synthetic samples.
"""

import math
import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# ... and is never reported above p99.
TAIL_CAP = 0.99


def tail(values, beyond=TAIL_BEYOND, cap=TAIL_CAP):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value); the percentile is in [0, 100·cap]. With
    `beyond` samples or fewer there is no such percentile: (None, max).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return None, ordered[-1]
    q = min(cap, (n - beyond) / n)
    index = math.ceil(q * n - 1e-9) - 1
    return 100.0 * q, ordered[index]


def split(values, counts):
    """`values` cut into consecutive parts of the given lengths."""
    if sum(int(c) for c in counts) != len(values):
        raise ValueError(f"counts {counts} do not add up to {len(values)} values")
    parts, start = [], 0
    for count in counts:
        parts.append(values[start:start + int(count)])
        start += int(count)
    return parts


def median_tail(parts):
    """The median over `parts` of each part's tail (see `tail`).

    Returns (value, [percentile of each part]). A burst of load on the
    host that covers one part in a run moves the pooled tail, but not the
    median of the parts' tails. Empty parts are skipped.
    """
    tails = [tail(part) for part in parts if part]
    if not tails:
        raise ValueError("no samples")
    return statistics.median(value for _, value in tails), [pct for pct, _ in tails]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


GAIN, NO_CHANGE, REGRESSION, UNRESOLVED = "gain", "no change", "regression", "unresolved"


def verdict(pairs, better, bound):
    """Verdict on paired runs [(a, b), ...] of one metric, B against A.

    * gain: B wins at least nine tenths of the pairs (ties count for
      neither) and the medians differ, in B's favour, by more than A's own
      interquartile distance;
    * regression: B's median is worse than A's by more than `bound` (a
      share of A's median);
    * unresolved: A's own spread is wider than the bound, unless every
      run of B reads better than every run of A;
    * no change: otherwise.
    """
    if not pairs:
        raise ValueError("no pairs")
    sign = -1.0 if better == "lower" else 1.0
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_b - med_a)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if wins >= 0.9 * len(pairs) and gain > (q3 - q1):
        return GAIN
    if -gain > bound * abs(med_a):
        return REGRESSION
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if (q3 - q1) > bound * abs(med_a) and not all_better:
        return UNRESOLVED
    return NO_CHANGE


def win_share(pairs, better):
    """Share of pairs in which B reads better than A (ties count for neither)."""
    sign = -1.0 if better == "lower" else 1.0
    return sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
