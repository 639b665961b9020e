"""Tests of the benchmark's own code: tracing wrappers, self-time arithmetic
and the generated workload inputs."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import kpex  # noqa: E402
import kpex.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def _kpex_namespaces():
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "kpex" or name.startswith("kpex.")):
            yield name, vars(module)
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    yield f"{name}.{attr}", vars(value)


def _sites(originals):
    """Every kpex name bound to one of ``originals``."""
    return {
        f"{owner}.{attr}"
        for owner, namespace in _kpex_namespaces()
        for attr, value in namespace.items()
        if any(value is fn for fn in originals)
    }


def _patched():
    return {
        f"{owner}.{attr}"
        for owner, namespace in _kpex_namespaces()
        for attr, value in namespace.items()
        if hasattr(value, "__bench_original__")
    }


def _original(target):
    owner, attr = spans._resolve(target)
    return owner.__dict__[attr]


def test_wrappers_install_at_every_import_site_and_restore_all():
    originals = [_original(t) for t in spans.TARGETS]
    sites = _sites(originals)
    # separate import sites of one function are all found
    assert {
        "kpex.encoder.encode_forward", "kpex.jlsd.encode_forward",
        "kpex.metrics.encode_forward", "kpex.encode_forward",
        "kpex.jlsd.viterbi", "kpex.metrics.viterbi", "kpex.cli.extract",
        "kpex.corpus.Vocabulary.encode", "kpex.model.Model.copy", "kpex.cli.main",
    } <= sites

    with Tracer().installed():
        assert _patched() == sites
    assert _patched() == set()
    assert _sites(originals) == sites


def test_traced_call_records_nested_spans_and_work():
    corpus = kpex.gen_synthetic(3, 20, vocab_size=40)
    model = kpex.init_model(kpex.build_vocab(corpus), 4, 3, 0)
    doc = corpus[0]
    expected = kpex.extract(model, doc)[0]
    tracer = Tracer()
    with tracer.installed():
        assert kpex.metrics.extract(model, doc)[0] == expected
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["metrics.extract", "corpus.encode", "encoder.encode_forward"]
    assert all(s.parent == 0 for s in tracer.spans[1:])
    forward = tracer.spans[2]
    assert forward.work == len(doc.tokens)
    assert tracer.spans[0].start <= forward.start <= forward.end <= tracer.spans[0].end


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: children cover [1, 6]
        Span("c", 2.0, 3.0, 1),
        Span("d", 8.0, 12.0, 0),  # clipped to the parent's end: covers [8, 10]
        Span("e", 1.5, 2.0, 0),  # inside a: adds no coverage
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 1.0, 4.0, 0.5]

    nested = Tracer(spans=[Span("x", 0.0, 10.0, None), Span("x", 2.0, 5.0, 0, work=7)])
    stats = nested.layer_stats()["x"]
    assert (stats.calls, stats.work, stats.total_s, stats.self_s) == (2, 7, 10.0, 10.0)


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    produced = spans.layer_metrics(Tracer())
    declared = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")}
    assert declared <= set(produced)


def _input_bytes(cls, seed):
    """Canonical JSONL bytes of every generated input document, labels included."""
    data = cls(seed).inputs()
    data.pop("sources", None)
    return "\n".join(
        json.dumps({"id": d.id, "tokens": list(d.tokens), "labels": list(getattr(d, "labels", ()))})
        for _, docs in sorted(data.items())
        for d in docs
    ).encode("utf-8")


def test_workload_inputs_are_byte_identical_per_seed_and_differ_across_seeds():
    for cls in workloads.WORKLOADS.values():
        first = _input_bytes(cls, 1)
        assert first == _input_bytes(cls, 1), cls.name
        assert first != _input_bytes(cls, 2), cls.name


def test_extract_documents_are_disjoint_from_the_fixture_training_split():
    data = workloads.Extract(1).inputs()
    fixture = list(data["train"]) + list(data["dev"])
    fixture_ids = {d.id for d in fixture}
    fixture_texts = [" " + " ".join(d.tokens) + " " for d in fixture]
    assert len(data["docs"]) == workloads.Extract.n_docs
    assert [len(d.tokens) for d in data["docs"]] == list(workloads.Extract(1)._lengths())
    for doc, sources in zip(data["docs"], data["sources"]):
        assert sources and not fixture_ids & set(sources)
        assert 10 <= len(doc.tokens) <= workloads.Extract.max_tokens
        text = " " + " ".join(doc.tokens) + " "
        assert not any(seen in text for seen in fixture_texts)
