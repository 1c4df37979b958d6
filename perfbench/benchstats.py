"""Order statistics the benchmark reports and judges itself by."""

import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def spread(values):
    """Distance between the first and third quartile as a share of the median.

    Quartiles follow statistics.quantiles(values, n=4) (the "exclusive"
    method); a run-to-run spread below a third of a metric's bound is the
    benchmark's steadiness target.
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread of values with median 0")
    return (q3 - q1) / abs(mid)
