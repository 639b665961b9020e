"""Outside-in tracing of the kpex layers.

A :class:`Tracer` wraps the public functions of every kpex module at every
name they are imported under (``kpex.jlsd.encode_forward`` and
``kpex.metrics.encode_forward`` are separate import sites), records one span
per call in memory, and restores every original on exit. No file under
``src/`` changes; the spans come only from these wrappers.

A span is ``(name, start, end, parent, work)``: ``parent`` is the index of
the enclosing span (or ``None``) and ``work`` the tokens or documents the
call processed, where the layer has such a count. A layer's self time is its
spans' durations minus the part of each interval that child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PROBE = "trace.probe"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _tokens_of_ids(tracer, args, kwargs):
    return len(_arg(args, kwargs, 1, "token_ids"))


def _tokens_of_cache(tracer, args, kwargs):
    return len(_arg(args, kwargs, 1, "cache").token_ids)


def _tokens_of_emissions(tracer, args, kwargs):
    return len(_arg(args, kwargs, 0, "emissions"))


def _tokens_of_vocab_encode(tracer, args, kwargs):
    return len(_arg(args, kwargs, 1, "tokens"))


def _one_doc(tracer, args, kwargs):
    return 1


def _pseudo_label_docs(tracer, args, kwargs):
    """Documents to label; also counts the ones an identical teacher already labeled."""
    from kpex.model import model_tensors

    docs = _arg(args, kwargs, 1, "docs")
    digest = hashlib.blake2b(digest_size=16)
    for arr in model_tensors(_arg(args, kwargs, 0, "teacher")).values():
        digest.update(arr.tobytes())
    seen = tracer.labeled.setdefault(digest.digest(), set())
    for d in docs:
        tracer.pseudo_repeats += d.id in seen
        seen.add(d.id)
    return len(docs)


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    attr: str  # "function" or "Class.method"
    work: object = None  # (tracer, args, kwargs) -> int
    work_unit: str | None = None  # "tokens" or "docs"
    costly_work: bool = False  # time the work count as a child probe span


TARGETS = (
    Target("corpus.sample_batch", "kpex.corpus", "sample_batch"),
    Target("corpus.encode", "kpex.corpus", "Vocabulary.encode", _tokens_of_vocab_encode, "tokens"),
    Target("corpus.load_jsonl", "kpex.corpus", "load_jsonl"),
    Target("encoder.encode_forward", "kpex.encoder", "encode_forward", _tokens_of_ids, "tokens"),
    Target("encoder.encode_backward", "kpex.encoder", "encode_backward", _tokens_of_cache, "tokens"),
    Target("encoder.adam_step", "kpex.encoder", "adam_step"),
    Target("crf.nll_and_grad", "kpex.crf", "nll_and_grad", _tokens_of_emissions, "tokens"),
    Target("crf.viterbi", "kpex.crf", "viterbi", _tokens_of_emissions, "tokens"),
    Target("crf.marginals", "kpex.crf", "marginals", _tokens_of_emissions, "tokens"),
    Target("model.copy", "kpex.model", "Model.copy"),
    Target("model.save_checkpoint", "kpex.model", "save_checkpoint"),
    Target("model.load_checkpoint", "kpex.model", "load_checkpoint"),
    Target("jlsd.train", "kpex.jlsd", "train_supervised"),
    Target("jlsd.train", "kpex.jlsd", "jlsd_train"),
    Target("jlsd.pseudo_label", "kpex.jlsd", "pseudo_label", _pseudo_label_docs, "docs", True),
    Target("metrics.dataset_f1", "kpex.metrics", "dataset_f1"),
    Target("metrics.extract", "kpex.metrics", "extract", _one_doc, "docs"),
    Target("cli.main", "kpex.cli", "main"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    work: int = 0


@dataclass
class LayerStats:
    calls: int = 0
    work: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder for one traced call."""

    spans: list = field(default_factory=list)
    labeled: dict = field(default_factory=dict)  # teacher digest -> labeled doc ids
    pseudo_repeats: int = 0
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(target.layer)
            try:
                if target.work is not None:
                    if target.costly_work:
                        probe = self.open(PROBE)
                        try:
                            self.spans[index].work = target.work(self, args, kwargs)
                        finally:
                            self.close(probe)
                    else:
                        self.spans[index].work = target.work(self, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        traced.__bench_original__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target at every import site; restore all on exit."""
        patches = install(self)
        try:
            yield self
        finally:
            restore(patches)

    def layer_stats(self) -> dict:
        stats: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            s = stats.setdefault(span.name, LayerStats())
            s.calls += 1
            s.work += span.work
            s.self_s += own
            if not self._inside_same_layer(span):  # count nested time once
                s.total_s += span.end - span.start
        return stats

    def _inside_same_layer(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.work] for s in self.spans]


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list:
    """Patch every target at its definition and every import site.

    Import sites are found by identity: any attribute of a loaded ``kpex``
    module that is the target function object. Methods are patched on their
    class. Returns ``(owner, attribute, original)`` triples for :func:`restore`.
    """
    originals = {}
    patches = []
    for target in TARGETS:
        owner, attr = _resolve(target)
        fn = owner.__dict__[attr]
        originals[id(fn)] = (target, fn)
        if isinstance(owner, type):
            patches.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(target, fn))
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kpex" or name.startswith("kpex.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                patches.append((module, attr, value))
                setattr(module, attr, tracer.wrap(*hit))
    return patches


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, named ``<layer>.<field>``; zero for layers never called.

    Fields: ``calls``; ``tokens`` or ``docs`` (the layer's work); ``s`` (time
    inside the layer, children included); ``self_s``; ``us_per_call`` and
    ``us_per_token``/``us_per_doc`` (self time per call or per unit of work);
    and ``jlsd.pseudo_label.repeat_share``, the share of pseudo-labeled
    documents that a teacher with identical parameters had already labeled.
    """
    stats = tracer.layer_stats()
    out = {}
    for target in TARGETS:
        s = stats.get(target.layer, LayerStats())
        p = target.layer + "."
        out[p + "calls"] = s.calls
        out[p + "s"] = s.total_s
        out[p + "self_s"] = s.self_s
        out[p + "us_per_call"] = 1e6 * s.self_s / s.calls if s.calls else 0.0
        if target.work_unit is not None:
            out[p + target.work_unit] = s.work
            out[p + "us_per_" + target.work_unit[:-1]] = 1e6 * s.self_s / s.work if s.work else 0.0
    docs = out["jlsd.pseudo_label.docs"]
    out["jlsd.pseudo_label.repeat_share"] = tracer.pseudo_repeats / docs if docs else 0.0
    return out


def layer_table(tracer: Tracer, elapsed_s: float) -> dict:
    """Per layer: calls, work, inclusive and self seconds, and their shares of the call."""
    rows = sorted(tracer.layer_stats().items(), key=lambda kv: -kv[1].self_s)
    return {
        name: {
            "calls": s.calls,
            "work": s.work,
            "s": s.total_s,
            "self_s": s.self_s,
            "share": s.total_s / elapsed_s,
            "self_share": s.self_s / elapsed_s,
        }
        for name, s in rows
    }
