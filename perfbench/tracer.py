"""Per-layer tracing for the benchmark, done entirely from outside the program.

``Tracer.install`` replaces the public functions of each fivebar module in
every module namespace that binds them, which is where their callers look
them up (``fivebar.aspects.build`` as well as ``fivebar.quadtree.build``).
``uninstall`` puts the originals back, so untraced passes run unmodified
code.

Three kinds of wrapper, from cheapest to richest:

* ``fivebar.interval`` primitives only bump a counter; they run hundreds of
  times per box classification.
* ``fivebar.mechanism`` functions and the classifier callables handed to
  ``quadtree.build`` / ``refine`` are timed and their time is charged to
  the enclosing span, but they record no span of their own (a depth-10
  build makes ~35 000 of them). The classifier wrapper also counts calls,
  verdicts and interval operations per depth.
* Every other public function records a span: name, start, end, parent,
  segment and run id, plus its self time (duration minus the time of the
  calls nested in it).

Counts and times are accumulated per benchmark segment (one timed operation
of a pass); ``Tracer.take_segment`` hands them over when the segment ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("interval", "mechanism", "quadtree", "aspects", "render", "bench", "cli")
# private helpers that are the only boundary of a layer metric
EXTRA = {"cli": ("_write_text",)}
# calls wrapped with tracemalloc, reported as allocation peaks
ALLOC = {"quadtree.label_regions"}
MAX_DEPTH = 10  # deepest level reported per depth (the build workload's depth)
K_RATIO_SEGMENTS = tuple(
    f"{m}.{s}" for m in ("m1", "m2") for s in ("jointspace", "workspace")
)

clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id")

    def __init__(self, name, start, span_id, parent_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id


def new_segment() -> dict:
    return {
        "clf_calls": 0,
        "clf_busy": 0.0,
        "clf_decided": 0,
        "clf_iv_ops": 0,
        "refine_clf_calls": 0,
        "calls_d": defaultdict(int),
        "undecided_d": defaultdict(int),
        "tree_calls": 0,  # sum of stats.calls of the trees build/refine return
        "leaves": 0,
        "builds": [],  # (calls, d_max) of every fresh build
        "span_n": defaultdict(int),
        "span_s": defaultdict(float),
        "self_s": defaultdict(float),
        "rects": 0,
        "alloc_mb": defaultdict(float),
    }


class Tracer:
    def __init__(self, fb, run_id: str):
        self.fb = fb
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stack: list[_Frame] = []
        self.next_id = 0
        self.iv_ops = [0]
        self.in_refine = 0
        self.segment_name = None
        self.seg = new_segment()
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- segments
    def begin_segment(self, name: str) -> None:
        self.segment_name = name
        self.seg = new_segment()

    def take_segment(self) -> dict:
        seg, self.seg = self.seg, new_segment()
        return seg

    # ------------------------------------------------------------- frames
    def _enter(self, name: str, record: bool) -> _Frame:
        parent = self.stack[-1] if self.stack else None
        span_id = None
        if record:
            span_id = self.next_id
            self.next_id += 1
        frame = _Frame(name, clock(), span_id, parent.span_id if parent else None)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, record: bool) -> float:
        end = clock()
        self.stack.pop()
        dur = end - frame.start
        if self.stack:
            self.stack[-1].child += dur
        if record:
            self_s = dur - frame.child
            self.spans.append(
                (frame.span_id, frame.parent_id, frame.name, self.segment_name,
                 frame.start, end, self_s)
            )
            self.seg["span_n"][frame.name] += 1
            self.seg["span_s"][frame.name] += dur
            self.seg["self_s"][frame.name] += self_s
        return dur

    # ----------------------------------------------------------- wrappers
    def _counted(self, fn):
        counter = self.iv_ops

        @functools.wraps(fn)
        def w(*a, **k):
            counter[0] += 1
            return fn(*a, **k)

        return w

    def _aggregated(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def w(*a, **k):
            frame = tracer._enter(name, False)
            try:
                return fn(*a, **k)
            finally:
                tracer._exit(frame, False)

        return w

    def _classifier(self, classify, root_width: float):
        tracer = self
        counter = self.iv_ops

        def w(box):
            ops0 = counter[0]
            frame = tracer._enter("mechanism.classify", False)
            try:
                r = classify(box)
            finally:
                dur = tracer._exit(frame, False)
            seg = tracer.seg
            seg["clf_calls"] += 1
            seg["clf_busy"] += dur
            seg["clf_iv_ops"] += counter[0] - ops0
            if tracer.in_refine:
                seg["refine_clf_calls"] += 1
            depth = round(math.log2(root_width / box.x.width))
            seg["calls_d"][depth] += 1
            if r:
                seg["clf_decided"] += 1
            else:
                seg["undecided_d"][depth] += 1
            return r

        return w

    def _spanned(self, name, fn):
        tracer = self
        alloc = name in ALLOC

        @functools.wraps(fn)
        def w(*a, **k):
            started = False
            if alloc:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            frame = tracer._enter(name, True)
            try:
                result = fn(*a, **k)
            finally:
                tracer._exit(frame, True)
                if alloc:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    if started:
                        tracemalloc.stop()
                    seg = tracer.seg["alloc_mb"]
                    seg[name] = max(seg[name], peak)
            tracer._observe(name, result)
            return result

        return w

    def _tree_builder(self, name, fn, refine: bool):
        tracer = self
        spanned = self._spanned(name, fn)

        @functools.wraps(fn)
        def w(first, d_max, classify, *a, **k):
            box = first.root_box if refine else first
            tracer.in_refine += refine
            try:
                return spanned(
                    first, d_max, tracer._classifier(classify, box.x.width), *a, **k
                )
            finally:
                tracer.in_refine -= refine

        return w

    def _observe(self, name: str, result) -> None:
        seg = self.seg
        if name in ("quadtree.build", "quadtree.refine"):
            st = result.stats
            seg["tree_calls"] += st.calls
            seg["leaves"] += st.black + st.white + st.undetermined
            if name == "quadtree.build":
                seg["builds"].append((st.calls, result.max_depth))
        elif name == "render.render_svg":
            seg["rects"] += result.count("<rect")

    # ------------------------------------------------------ (un)install
    def install(self) -> None:
        fb = self.fb
        modules = [getattr(fb, m) for m in LAYERS] + [fb.package]
        for layer in LAYERS:
            mod = getattr(fb, layer)
            names = [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not n.startswith("_")
            ]
            for n in names + list(EXTRA.get(layer, ())):
                orig = getattr(mod, n)
                qual = f"{layer}.{n}"
                if layer == "interval":
                    wrapped = self._counted(orig)
                elif layer == "mechanism":
                    wrapped = self._aggregated(qual, orig)
                elif qual in ("quadtree.build", "quadtree.refine"):
                    wrapped = self._tree_builder(qual, orig, qual == "quadtree.refine")
                else:
                    wrapped = self._spanned(qual, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    # -------------------------------------------------------------- output
    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, seg, start, end, self_s in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "segment": seg, "start": start, "end": end,
                    "self_s": self_s,
                }) + "\n")


def layer_metrics(per_segment: dict[str, list], fb) -> dict:
    """Per-pass layer metrics from the traced samples of every segment.

    ``per_segment`` maps a segment name to the list of raw dicts of its
    traced executions. Quantities are taken as the median over a segment's
    executions and summed over segments (allocation peaks: the maximum).
    ``quadtree.k_ratio.<mechanism>.<space>`` comes from the one fresh build of
    the segment of that name (the build workload's depth-10 trees), 0 where
    no such segment ran.
    """
    from statistics import median

    tot: dict[str, float] = defaultdict(float)
    alloc: dict[str, float] = defaultdict(float)

    def add(key, values):
        tot[key] += median(values)

    for name, samples in per_segment.items():
        for key in ("clf_calls", "clf_busy", "clf_decided", "clf_iv_ops",
                    "refine_clf_calls", "tree_calls", "leaves", "rects"):
            add(key, [s[key] for s in samples])
        for d in range(MAX_DEPTH + 1):
            add(f"calls_d{d}", [s["calls_d"].get(d, 0) for s in samples])
            add(f"undecided_d{d}", [s["undecided_d"].get(d, 0) for s in samples])
        span_names = set().union(*(s["span_n"] for s in samples))
        for sn in span_names:
            add(f"n:{sn}", [s["span_n"].get(sn, 0) for s in samples])
            add(f"s:{sn}", [s["span_s"].get(sn, 0.0) for s in samples])
            add(f"self:{sn}", [s["self_s"].get(sn, 0.0) for s in samples])
        for an in ALLOC:
            alloc[an] = max([alloc[an]] + [s["alloc_mb"].get(an, 0.0) for s in samples])

    def ratio(a, b, scale=1.0):
        return tot[a] / tot[b] * scale if tot[b] else 0.0

    out = {
        "mechanism.calls": tot["clf_calls"],
        "mechanism.busy_s": tot["clf_busy"],
        "mechanism.us_per_call": ratio("clf_busy", "clf_calls", 1e6),
        "mechanism.decided_ratio": ratio("clf_decided", "clf_calls"),
    }
    for d in range(MAX_DEPTH + 1):
        out[f"mechanism.calls.d{d}"] = tot[f"calls_d{d}"]
    for d in range(MAX_DEPTH + 1):
        out[f"mechanism.undecided.d{d}"] = tot[f"undecided_d{d}"]
    out["interval.ops_per_call"] = ratio("clf_iv_ops", "clf_calls")
    out["quadtree.build_self_s"] = tot["self:quadtree.build"] + tot["self:quadtree.refine"]
    for seg_name in K_RATIO_SEGMENTS:
        samples = per_segment.get(seg_name, [])
        builds = samples[0]["builds"] if samples else []
        out[f"quadtree.k_ratio.{seg_name}"] = (
            fb.bench.BenchRow("", "", builds[0][1], builds[0][0]).k_ratio
            if builds else 0.0
        )
    out.update({
        "quadtree.refine_calls": tot["refine_clf_calls"],
        "quadtree.leaves": tot["leaves"],
        "quadtree.label_s": tot["s:quadtree.label_regions"],
        "quadtree.label_alloc_mb": alloc["quadtree.label_regions"],
        "quadtree.leaf_walks": tot["n:quadtree.collect_leaves"],
        "quadtree.leaf_walk_s": tot["s:quadtree.collect_leaves"],
        "quadtree.serialize_s": tot["s:quadtree.serialize"],
        "quadtree.deserialize_s": tot["s:quadtree.deserialize"],
        "quadtree.locate_us": ratio("s:quadtree.locate", "n:quadtree.locate", 1e6),
        "quadtree.sample_s": tot["s:quadtree.sample_black_points"],
        "aspects.regions_s": tot["s:aspects.aspect_regions"],
        "render.svg_s": tot["s:render.render_svg"],
        "render.rects": tot["rects"],
        "cli.write_s": tot["s:cli._write_text"],
    })
    out["trace.spans"] = sum(v for k, v in tot.items() if k.startswith("n:"))
    return out
