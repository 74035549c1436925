"""Span arithmetic for the traced replay.

A span is a dict with id, name, start, end (ns), parent (-1 for a root)
and req. Self time is a span's duration minus the part of its interval
that the union of its children covers: overlapping children are counted
once, and a child sticking out of its parent is clipped to it.
"""

import json


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: self time in ns}."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered(kids)
    return out


def load(path):
    """(spans, counts) from the replay's JSON-lines output."""
    spans, counts = [], []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            (counts if "count" in rec else spans).append(rec)
    return spans, counts
