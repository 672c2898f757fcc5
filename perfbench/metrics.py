"""The benchmark's arithmetic: medians, quartile spreads and span times."""
import statistics


def median(values):
    """Median of a non-empty sequence of numbers."""
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``, exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def span_times(spans):
    """Per-name call counts, inclusive times and self times of a span list.

    ``spans`` holds ``[name, start, end, parent]`` entries, ``parent`` being
    the index of the enclosing span or ``None``.  A span's self time is its
    duration less the durations of its direct children; the children of one
    span never overlap, because the traced program runs in one thread.  The
    inclusive time of a name counts only its outermost spans, so a recursive
    or nested call is not counted twice.

    Returns ``{name: {"calls": int, "s": float, "self_s": float}}``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if not _inside(spans, parent, name):
            entry["s"] += end - start
    return out


def _inside(spans, index, name):
    while index is not None:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def coverage(spans, root, wall):
    """Share of ``wall`` covered by layer spans: the spans just below the
    span named ``root``, plus any top-level span that is not ``root``."""
    roots = {i for i, s in enumerate(spans) if s[0] == root}
    covered = sum(end - start for name, start, end, parent in spans
                  if (parent is None and name != root) or parent in roots)
    return covered / wall
