"""Spans and counters for the traced run, recorded from outside the program.

``install`` re-binds, inside this process only, the public names the
program calls through: the handlers and imported functions of
``eventaug.cli``, ``graph.build_graph``/``fuse``/``neighborhood``,
``classify.train``/``predict``/``evaluate``/``mix_rows``,
``ResponseCache.get``/``put``, the shuffle mock's ``complete`` and
``diagnostics.pca2``/``histogram``. No program file changes. Spans are kept
in memory and written once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans (id, name, start, end, parent, thread) and additive counters.

    The parent of a span is the innermost open span of the same thread;
    spans opened in the provider's worker threads have no parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.taken_counters: list[dict] = []
        self._taken = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(tracer, args, result)``
        may add counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         threading.get_ident()))
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def take(self) -> tuple[list, dict]:
        """Spans and counters recorded since the last take; counters then
        restart from zero, spans stay kept for ``write``."""
        with self._lock:
            spans = self.spans[self._taken:]
            self._taken = len(self.spans)
            counters, self.counters = dict(self.counters), defaultdict(float)
            self.taken_counters.append(counters)
        return spans, counters

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": thread}) + "\n")
            for counters in self.taken_counters:
                fh.write(json.dumps({"counters": counters}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.
    Children of one span run one after another on its thread, so their
    durations add up without overlap."""
    child = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: end - start - child[sid] for sid, _, start, end, _, _ in spans}


def _mix_counts(tracer, args, result):
    x = args[0]
    perturbed = int(np.any(result != x, axis=1).sum())
    tracer.count("perturb.rows_in", x.shape[0])
    tracer.count("perturb.rows_perturbed", perturbed)


def _train_counts(tracer, args, result):
    config = args[2]
    rows = len(args[1])
    tracer.count("classify.steps", config.epochs * -(-rows // config.batch_size))


def _augment_counts(tracer, args, result):
    tracer.count("textaug.tasks", result.generated + result.skipped)
    tracer.count("textaug.cache_hits", result.cache_hits)


def install(tracer: Tracer):
    """Re-bind the program's public names to traced wrappers; returns a
    function that restores them."""
    from eventaug import classify, cli, diagnostics, graph, textaug

    saved = []

    def rebind(owner, attr, name, after=None, item=False):
        original = owner[attr] if item else getattr(owner, attr)
        wrapped = tracer.wrap(name, original, after)
        saved.append((owner, attr, original, item))
        if item:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    for command in list(cli._HANDLERS):
        rebind(cli._HANDLERS, command, "cli." + command.replace("-", "_"), item=True)

    def rows_parsed(t, args, result):
        t.count("ingest.rows_parsed", len(result.messages))

    def bytes_read(t, args, result):
        t.count("core.bytes_read", os.path.getsize(args[0]))

    for attr, name, after in (
            ("parse_corpus", "ingest.parse_corpus", rows_parsed),
            ("write_corpus", "ingest.write_corpus", None),
            ("with_entities", "ingest.with_entities", None),
            ("attach_embeddings", "ingest.attach_embeddings", None),
            ("read_embeddings", "core.read_embeddings", bytes_read),
            ("write_embeddings", "core.write_embeddings", None),
            ("split", "core.split", None),
            ("augment_corpus", "textaug.augment_corpus", _augment_counts),
            ("save_model", "classify.save_model", None),
            ("load_model", "classify.load_model", None),
            ("export_plots", "diagnostics.export_plots", None)):
        rebind(cli, attr, name, after)

    def entity_degree(t, args, result):
        degree = max((len(v) for v in result.entity_messages.values()), default=0)
        with t._lock:
            t.counters["graph.max_entity_degree"] = max(
                t.counters["graph.max_entity_degree"], degree)

    def neighbor_rows(t, args, result):
        t.count("graph.neighbor_rows", len(result[0]) + len(result[1]))

    rebind(graph, "build_graph", "graph.build_graph", entity_degree)
    rebind(graph, "fuse", "graph.fuse")
    rebind(graph, "neighborhood", "graph.neighborhood", neighbor_rows)

    # train/predict/evaluate are called from both cli and classify.ratio_study
    for module in (cli, classify):
        rebind(module, "train", "classify.train", _train_counts)
        rebind(module, "predict", "classify.predict")
        rebind(module, "evaluate", "metrics.evaluate")

    # The outer span times every mixer call, the inner one names its method.
    original_mix = classify.mix_rows
    per_method = {m: tracer.wrap(f"perturb.{m}.mix_rows", original_mix, _mix_counts)
                  for m in ("GP", "PGP", "IDGP", "CGP", "FDP")}

    @functools.wraps(original_mix)
    def mix_rows(x, config, *args, **kwargs):
        return per_method[config.method](x, config, *args, **kwargs)

    saved.append((classify, "mix_rows", original_mix, False))
    classify.mix_rows = tracer.wrap("perturb.mix_rows", mix_rows)

    rebind(textaug.ResponseCache, "get", "textaug.cache_get")
    rebind(textaug.ResponseCache, "put", "textaug.cache_put")
    rebind(textaug.ShuffleProvider, "complete", "textaug.provider")
    rebind(diagnostics, "pca2", "diagnostics.pca2")
    rebind(diagnostics, "histogram", "diagnostics.histogram")

    def restore():
        for owner, attr, original, item in reversed(saved):
            if item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return restore


SPAN_METRICS = (
    "cli.augment_text", "cli.fuse", "cli.train", "cli.eval", "cli.ratio_study",
    "cli.diagnose", "ingest.parse_corpus", "ingest.write_corpus",
    "ingest.with_entities", "ingest.attach_embeddings", "core.read_embeddings",
    "core.write_embeddings", "core.split", "textaug.augment_corpus",
    "textaug.provider", "textaug.cache_put", "textaug.cache_get",
    "graph.build_graph", "graph.fuse", "graph.neighborhood", "perturb.mix_rows",
    "perturb.GP.mix_rows", "perturb.PGP.mix_rows", "perturb.IDGP.mix_rows",
    "perturb.CGP.mix_rows", "perturb.FDP.mix_rows", "classify.train",
    "classify.predict", "classify.save_model", "classify.load_model",
    "metrics.evaluate", "diagnostics.export_plots", "diagnostics.pca2",
    "diagnostics.histogram",
)
COUNT_METRICS = (
    "ingest.rows_parsed", "core.bytes_read", "textaug.tasks", "textaug.cache_hits",
    "graph.neighbor_rows", "graph.max_entity_degree", "perturb.rows_in",
    "perturb.rows_perturbed", "classify.steps",
)


def pass_metrics(spans, counters) -> dict[str, float]:
    """Per-layer figures of one traced pass. A ``<layer>_s`` figure is the
    summed duration of that layer's spans; ``classify.train_self_s`` is
    training time minus the mixer spans inside it."""
    total = defaultdict(float)
    calls = defaultdict(int)
    self_t = self_times(spans)
    train_self = 0.0
    for sid, name, start, end, _, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if name == "classify.train":
            train_self += self_t[sid]
    out = {f"{name}_s": total[name] for name in SPAN_METRICS}
    out.update({name: counters.get(name, 0.0) for name in COUNT_METRICS})
    out["textaug.provider_calls"] = calls["textaug.provider"]
    out["classify.train_self_s"] = train_self
    steps = out["classify.steps"]
    out["classify.step_self_us"] = train_self / steps * 1e6 if steps else 0.0
    tasks = out["textaug.tasks"]
    out["textaug.hit_ratio"] = out["textaug.cache_hits"] / tasks if tasks else 0.0
    rows = out["perturb.rows_in"]
    out["perturb.realised_alpha"] = out["perturb.rows_perturbed"] / rows if rows else 0.0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name in ("textaug.hit_ratio", "perturb.realised_alpha"):
        return "ratio"
    if name == "core.bytes_read":
        return "bytes"
    return "count"
