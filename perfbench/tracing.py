"""Outside-in layer tracing for the traced benchmark run.

The traced run wraps the public entry point of each layer at the
attribute its caller looks up (a class method, or a module global the
calling module imported) and records one span per call: layer name,
start, end and the span that caused it.  Spans stay in memory; the
benchmark folds them into per-layer self times (a span's duration minus
the time its direct child spans cover) and writes them out at the end.

Nothing here is imported by the untraced run, and :meth:`Tracer.install`
restores every attribute it replaced when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layers whose self times partition the traced wall time (with
#: ``other_s``).  Order is the report order.
SELF_TIME_LAYERS = (
    ("decoders.bp.decode_s", "decoders.bp"),
    ("decoders.bposd.osd_s", "decoders.bposd.osd"),
    ("decoders.bposd.self_s", "decoders.bposd"),
    ("core.phenomenological.sample_s", "core.phenomenological.sample"),
    ("core.phenomenological.structure_s", "core.phenomenological.structure"),
    ("core.phenomenological.model_s", "core.phenomenological.model"),
    ("parallel.pipeline.self_s", "parallel.pipeline"),
    ("core.memory.self_s", "core.memory"),
    ("qccd.compile_s", "qccd.compile"),
    ("codes.build_s", "codes.build"),
    ("campaign.store.append_s", "campaign.store.append"),
    ("campaign.store.refresh_s", "campaign.store.refresh"),
    ("campaign.orchestrator.self_s", "campaign.orchestrator"),
)


class Tracer:
    """In-memory span recorder plus counters at the same boundaries."""

    def __init__(self) -> None:
        #: ``(layer, start, end, parent index or -1)`` per finished call.
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, layer, fn, after=None):
        """``fn`` timed as a span of ``layer``.

        ``layer`` is a string or a callable of the call's arguments
        (to label per-codesign compile spans); ``after(result, args,
        kwargs)`` updates counters once the call returns.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(*args) if callable(layer) else layer
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((name, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                _, start, _, _ = self.spans[index]
                self.spans[index] = (name, start, time.perf_counter(), parent)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` that ran inside a span of ``ancestor``."""
        total = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            total += parent >= 0
        return total

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return totals

    # -- installation --------------------------------------------------
    @contextmanager
    def install(self):
        """Wrap every layer entry point for the duration of the block."""
        counts = self.counts

        def bp_after(result, args, kwargs):
            counts["decoders.bp.iterations"] += result.iterations
            counts["bp.converged"] += int(result.converged.sum())
            counts["bp.decoded"] += int(result.converged.size)

        def osd_after(result, args, kwargs):
            counts["decoders.bposd.osd_calls"] += 1

        def sample_after(result, args, kwargs):
            shots = kwargs["shots"] if "shots" in kwargs else args[3]
            counts["core.phenomenological.sampled_shots"] += shots

        def pipeline_after(result, args, kwargs):
            stats = args[0].last_run_stats
            counts["parallel.pipeline.shards"] += stats.get("shards_run", 0)
            counts["pipeline.shards_resubmitted"] += stats.get(
                "shards_resubmitted", 0)
            counts["pipeline.local_fallbacks"] += int(
                bool(stats.get("local_fallback")))

        def compile_after(result, args, kwargs):
            counts["qccd.ops"] += result.num_operations
            counts["qccd.shuttles"] += result.shuttle_count()

        def append_wrap(fn):
            # On-disk bytes are the store file's growth across the call.
            def appended(store, *args, **kwargs):
                before = _size(store.path)
                result = fn(store, *args, **kwargs)
                counts["campaign.store.appends"] += 1
                counts["campaign.store.bytes"] += _size(store.path) - before
                return result
            return self._wrap("campaign.store.append", appended)

        targets = [
            ("repro.decoders.bp", "BeliefPropagationDecoder", "decode_batch",
             lambda fn: self._wrap("decoders.bp", fn, bp_after)),
            ("repro.decoders.bposd", "BPOSDDecoder", "decode_batch",
             lambda fn: self._wrap("decoders.bposd", fn)),
            ("repro.decoders.gf2dense", "PackedGF2Matrix", "solve_ordered",
             lambda fn: self._wrap("decoders.bposd.osd", fn, osd_after)),
            ("repro.parallel.pipeline", None, "sample_phenomenological_shard",
             lambda fn: self._wrap("core.phenomenological.sample", fn,
                                   sample_after)),
            ("repro.core.memory", None, "build_spacetime_structure",
             lambda fn: self._wrap("core.phenomenological.structure", fn)),
            ("repro.core.memory", None, "build_phenomenological_model",
             lambda fn: self._wrap("core.phenomenological.model", fn)),
            ("repro.parallel.pipeline", "ShardedExperiment", "run",
             lambda fn: self._wrap("parallel.pipeline", fn, pipeline_after)),
            ("repro.core.memory", "MemoryExperiment", "run",
             lambda fn: self._wrap("core.memory", fn)),
            ("repro.core.codesign", "Codesign", "compile",
             lambda fn: self._wrap(lambda design, *_: "qccd.compile."
                                   + design.name, fn, compile_after)),
            ("repro.campaign.store", "ResultStore", "append", append_wrap),
            ("repro.campaign.store", "ResultStore", "refresh",
             lambda fn: self._wrap("campaign.store.refresh", fn)),
            ("repro.campaign", None, "run_campaign",
             lambda fn: self._wrap("campaign.orchestrator", fn)),
        ]
        # ``code_by_name`` is imported by name into each calling module.
        for module in ("repro.codes", "repro.campaign.orchestrator",
                       "repro.campaign.kinds"):
            targets.append((module, None, "code_by_name",
                            lambda fn: self._wrap("codes.build", fn)))

        restore = []
        try:
            for module_name, class_name, attribute, wrap in targets:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
                restore.append((owner, attribute, original))
                setattr(owner, attribute, wrap(original))
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def layer_report(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced section.

    Layer self times plus ``other_s`` equal ``traced_wall`` exactly;
    ``qccd.compile_s.<codesign>`` split ``qccd.compile_s``.
    """
    self_times = tracer.self_times()
    compile_split = {name.split(".", 2)[2]: seconds
                     for name, seconds in self_times.items()
                     if name.startswith("qccd.compile.")}
    self_times["qccd.compile"] = sum(compile_split.values())
    report = {metric: self_times.get(span, 0.0)
              for metric, span in SELF_TIME_LAYERS}
    report["other_s"] = traced_wall - sum(report.values())
    for codesign, seconds in compile_split.items():
        report[f"qccd.compile_s.{codesign}"] = seconds
    counts = tracer.counts
    for name in ("decoders.bp.iterations", "decoders.bposd.osd_calls",
                 "core.phenomenological.sampled_shots",
                 "parallel.pipeline.shards", "qccd.ops", "qccd.shuttles",
                 "campaign.store.appends", "campaign.store.bytes"):
        report[name] = counts.get(name, 0.0)
    report["campaign.orchestrator.stages"] = tracer.count_within(
        "core.memory", "campaign.orchestrator")
    decoded = counts.get("bp.decoded", 0.0)
    report["decoders.bp.converged_fraction"] = (
        counts.get("bp.converged", 0.0) / decoded if decoded else 0.0)
    return report
