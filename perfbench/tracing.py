"""Spans, counters and the wrappers that record them in a traced run.

A traced pass replaces a fixed set of names that one incgeom module imports
from another (`harness.min_separation`, `regularity.fftconvolve`,
`incidence.incidence_mask`, ...) with wrappers that record one span per
call and add to work counters, and puts the originals back afterwards.
Untraced passes run with every original in place; `leaked_wrappers` lets
the runner check that before each timed pass.

Spans are kept in memory as (name, start, end, parent).  Traced passes run
single-threaded (workers=1), so one stack gives every span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

import incgeom
from incgeom import cli, cover, harness, incidence, regularity


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def add(self, name, value):
        self.counters[name] += value

    def total(self, name):
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name):
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self):
        """Self time per span name: duration minus the time its direct
        children cover (children of one span never overlap here)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out = Counter()
        for s, c in zip(self.spans, child):
            out[s.name] += s.duration - c
        return out


def _kind(fam):
    return "points" if fam.kind == "points" else "planes"


def _wrap(tracer, fn, name, after=None):
    """`fn` recorded as span `name` (a string or a function of the call's
    arguments); `after(tracer, result, *args)` adds counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(*args)
        with tracer.span(label):
            out = fn(*args, **kwargs)
        if after is not None:
            after(tracer, out, *args)
        return out

    return wrapper


def _separation_pairs(tracer, out, fam):
    if fam.kind == "hyperplanes":
        n = len(fam)
        tracer.add("regularity.separation_pairs.planes", n * (n - 1) // 2)


def _fft_work(tracer, out, in1, in2, *rest):
    tracer.add("regularity.fft_calls", 1)
    tracer.add("regularity.fft_voxels", int(np.prod(np.add(in1.shape, in2.shape) - 1)))


def _count_work(tracer, report, points_fam, planes_fam, *rest):
    tracer.add("incidence.count", report.count)
    tracer.add("incidence.all_pairs", len(points_fam) * len(planes_fam))


def _leaf_work(tracer, mask, *rest):
    tracer.add("incidence.leaf_pairs", mask.size)
    tracer.add("incidence.leaf_hits", int(np.count_nonzero(mask)))


def _contains_work(tracer, hits, box, points, *rest):
    tracer.add("cover.contains_calls", 1)
    tracer.add("cover.box_tests", len(np.atleast_2d(points)))


# (owner, attribute, span name, counter hook).  Each owner is the module or
# class whose attribute the library code looks up at call time.
_PATCH_POINTS = (
    (harness, "construct_sharp", "constructions.sharp", None),
    (harness, "read_family", "family.read", None),
    (harness, "min_separation",
     lambda fam: f"regularity.separation.{_kind(fam)}", _separation_pairs),
    (harness, "regularity_constant",
     lambda fam, *a: f"regularity.profile.{_kind(fam)}", None),
    (regularity, "fftconvolve", "regularity.fft", _fft_work),
    (harness, "count_incidences_fast", "incidence.count", _count_work),
    (incgeom, "count_incidences_fast", "incidence.count", _count_work),
    (incidence, "slab_offsets", "incidence.classify", None),
    (incidence, "incidence_mask", "incidence.leaf", _leaf_work),
    (cli, "run_experiment", "cli.run_experiment", None),
    (cover.Box, "contains", "cover.contains", _contains_work),
)

_ORIGINALS = tuple(owner.__dict__[attr] for owner, attr, _, _ in _PATCH_POINTS)


def leaked_wrappers():
    """Names of patch points that do not hold the library's own object."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr, _, _), orig in zip(_PATCH_POINTS, _ORIGINALS)
        if owner.__dict__[attr] is not orig
    ]


@contextlib.contextmanager
def installed(tracer):
    """Every patch point wrapped to record into `tracer`, for the duration."""
    try:
        for (owner, attr, name, after), orig in zip(_PATCH_POINTS, _ORIGINALS):
            setattr(owner, attr, _wrap(tracer, orig, name, after))
        yield tracer
    finally:
        for (owner, attr, _, _), orig in zip(_PATCH_POINTS, _ORIGINALS):
            setattr(owner, attr, orig)


# Spans that only give structure; their self time is time no layer claims.
STRUCTURAL = ("pass", "cli.run_experiment")


def pass_metrics(tracer, harness_timings=None):
    """Per-layer metrics of one traced pass recorded into `tracer`."""
    c = tracer.counters
    selfs = tracer.self_times()
    timings = harness_timings or {}
    count_s = tracer.total("incidence.count")
    leaf_s = tracer.total("incidence.leaf")
    classify_s = tracer.total("incidence.classify")
    pairs, hits = c["incidence.leaf_pairs"], c["incidence.leaf_hits"]
    all_pairs = c["incidence.all_pairs"]
    return {
        "trace.wall_s": tracer.total("pass"),
        "harness.setup_s": timings.get("setup_s", 0.0),
        "harness.summaries_s": timings.get("summaries_s", 0.0),
        "harness.count_s": timings.get("count_s", 0.0),
        "regularity.separation_s.points": tracer.total("regularity.separation.points"),
        "regularity.separation_s.planes": tracer.total("regularity.separation.planes"),
        "regularity.separation_pairs.planes": c["regularity.separation_pairs.planes"],
        "regularity.profile_s.points": tracer.total("regularity.profile.points"),
        "regularity.profile_s.planes": tracer.total("regularity.profile.planes"),
        "regularity.fft_s": tracer.total("regularity.fft"),
        "regularity.fft_calls": c["regularity.fft_calls"],
        "regularity.fft_voxels": c["regularity.fft_voxels"],
        "incidence.count_s": count_s,
        "incidence.leaf_s": leaf_s,
        "incidence.leaf_pairs": pairs,
        "incidence.leaf_hits": hits,
        "incidence.leaf_hit_ratio": hits / pairs if pairs else 0.0,
        "incidence.accepted_wholesale": c["incidence.count"] - hits,
        "incidence.pruned_fraction": 1.0 - pairs / all_pairs if all_pairs else 0.0,
        "incidence.classify_s": classify_s,
        "incidence.other_s": count_s - leaf_s - classify_s,
        "family.read_s": tracer.total("family.read"),
        "cli.overhead_s": tracer.total("cli.main") - tracer.total("cli.run_experiment"),
        "cover.build_s": tracer.total("cover.build"),
        "cover.verify_s": tracer.total("cover.verify"),
        "cover.control_s": tracer.total("cover.control"),
        "cover.boxes": c["cover.boxes"],
        "cover.contains_calls": c["cover.contains_calls"],
        "cover.box_tests": c["cover.box_tests"],
        "unattributed_s": sum(selfs[name] for name in STRUCTURAL),
    }


def setup_metrics(tracer):
    """Per-layer metrics of the set-up repetitions recorded into `tracer`:
    the median of each construction and write over the repetitions."""

    def med(name):
        values = tracer.durations(name)
        return statistics.median(values) if values else 0.0

    return {
        "constructions.sharp_s": med("constructions.sharp"),
        "constructions.random_s.points": med("constructions.random.points"),
        "constructions.random_s.planes": med("constructions.random.planes"),
        "family.write_s": med("family.write"),
    }


class _NullTracer:
    """Stands in for a Tracer in untraced passes: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def add(self, name, value):
        pass


NULL = _NullTracer()
