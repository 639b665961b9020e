import math
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import kpex.corpus
import kpex.jlsd
import kpex.metrics
from kpex import (
    ConfigError,
    DataError,
    Dataset,
    JlsdConfig,
    build_vocab,
    gen_synthetic,
    init_model,
    jlsd_train,
    load_jsonl,
    save_jsonl,
    split_dataset,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from kpex.corpus import LabeledDocument, bio_to_phrases, sample_batch
from kpex.crf import nll_and_grad
from kpex.encoder import encoder_tensors
from kpex.jlsd import pseudo_label
from kpex.metrics import MetricReport, dataset_f1, encoded_f1, gold_phrases
from kpex.model import Model, checkpoint_bytes


def tiny_config(**overrides):
    base = dict(
        T=40, eval_every=20, batch_size=4, seed=9, patience=10,
        embed_dim=8, hidden_dim=8, lr_lower=1e-2, lr_upper=1e-2,
    )
    base.update(overrides)
    return JlsdConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus():
    ds = gen_synthetic(3, 300, vocab_size=60, keyword_fraction=0.25)
    return split_dataset(ds, [50, 200, 30], names=["labeled", "unlabeled", "dev"])


# -- configuration -----------------------------------------------------------


def test_unlabeled_batch_size_rounds_half_up():
    assert JlsdConfig(r=1.0, batch_size=8).unlabeled_per_batch == 8
    assert JlsdConfig(r=0.25, batch_size=8).unlabeled_per_batch == 2
    assert JlsdConfig(r=1.5, batch_size=4).unlabeled_per_batch == 6
    assert JlsdConfig(r=0.125, batch_size=4).unlabeled_per_batch == 1  # 0.5 rounds up
    assert JlsdConfig(r=0.01, batch_size=8).unlabeled_per_batch == 0


def test_config_bounds_validated():
    with pytest.raises(ConfigError):
        JlsdConfig(T=-1)
    with pytest.raises(ConfigError):
        JlsdConfig(r=0.0)
    with pytest.raises(ConfigError):
        JlsdConfig(batch_size=0)
    # a negative seed would reach numpy's SeedSequence, a non-finite r
    # unlabeled_per_batch, a non-finite learning rate the parameters
    with pytest.raises(ConfigError, match="seed"):
        JlsdConfig(seed=-1)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="^r must be finite"):
            JlsdConfig(r=value)
        for name in ("lr_lower", "lr_upper"):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                JlsdConfig(**{name: value})
    # the bounds themselves are valid
    JlsdConfig(seed=0, lr_lower=0.0, lr_upper=0.0, source_pool_size=0)
    JlsdConfig(embed_dim=1, hidden_dim=kpex.jlsd.MAX_DIM, source_pool_size=kpex.jlsd.MAX_POOL)
    JlsdConfig(embed_dim=kpex.jlsd.MAX_DIM, hidden_dim=1)


# -- supervised baseline -----------------------------------------------------


def test_supervised_rerun_is_byte_identical(tiny_corpus):
    labeled, _, dev = tiny_corpus
    cfg = tiny_config()
    m1, r1 = train_supervised(labeled, dev, cfg)
    m2, r2 = train_supervised(labeled, dev, cfg)
    assert checkpoint_bytes(m1) == checkpoint_bytes(m2)
    assert r1.to_jsonl() == r2.to_jsonl()


def test_frozen_learning_rates_keep_loss_constant(tiny_corpus):
    labeled, _, dev = tiny_corpus
    # batch == whole dataset so each iteration sees identical documents
    cfg = tiny_config(lr_lower=0.0, lr_upper=0.0, batch_size=len(labeled), T=6, eval_every=3)
    _, report = train_supervised(labeled, dev, cfg)
    losses = [e["loss"] for e in report.events if e["event"] == "iteration"]
    assert max(losses) - min(losses) < 1e-12  # batch order only affects rounding


def test_a_reused_gradient_buffer_gives_the_same_bits(tiny_corpus):
    # _train_loop hands one gradient Model to every step: each step must overwrite it
    labeled, unlabeled, _ = tiny_corpus
    model = init_model(build_vocab(list(labeled) + list(unlabeled)), 8, 8, 0)
    rows = kpex.jlsd._Run(model.vocab, labeled[:1]).rows
    first = (rows(labeled[:4]), [])
    second = (rows(labeled[4:7]), pseudo_label(model, unlabeled[:3]))
    grad = Model(model.dims, model.vocab)
    for (gold, pseudo), fill in ((first, None), (second, None), (second, np.nan)):
        if fill is not None:
            grad.flat[...] = fill
        losses = kpex.jlsd._batch_gradients(model, gold, pseudo, grad)
        fresh = Model(model.dims, model.vocab)
        assert losses == kpex.jlsd._batch_gradients(model, gold, pseudo, fresh)
        npt.assert_array_equal(grad.flat, fresh.flat)


def test_supervised_rejects_bad_datasets(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    with pytest.raises(DataError, match="empty"):
        train_supervised(Dataset("e", []), dev, tiny_config())
    plain = Dataset("u", [d.doc for d in labeled])
    with pytest.raises(DataError, match="labeled"):
        train_supervised(plain, dev, tiny_config())


def test_best_checkpoint_is_kept(tiny_corpus):
    labeled, _, dev = tiny_corpus
    model, report = train_supervised(labeled, dev, tiny_config(T=60, eval_every=20))
    best_scores = [s for _, s in report.eval_scores]
    assert report.best_score == max(best_scores)
    assert dataset_f1(model, dev).f1 == report.best_score


# -- pseudo-labeling ---------------------------------------------------------


def test_zero_score_teacher_labels_everything_o(tiny_corpus):
    labeled, _, _ = tiny_corpus
    teacher = init_model(build_vocab(labeled), 8, 8, 0)
    for arr in encoder_tensors(teacher.encoder).values():
        arr[...] = 0.0
    docs = [d.doc for d in labeled[:5]]
    out = pseudo_label(teacher, docs)
    assert all(set(path) == {0} for _, path in out)
    for d, (ids, path) in zip(docs, out):  # a training row: the ids and one label per token
        npt.assert_array_equal(ids, teacher.vocab.encode(d.tokens))
        assert len(path) == len(d.tokens)


def test_pseudo_labels_keep_the_raw_viterbi_path(tiny_corpus):
    labeled, _, _ = tiny_corpus
    teacher = init_model(build_vocab(labeled), 8, 8, 0)
    for arr in encoder_tensors(teacher.encoder).values():
        arr[...] = 0.0
    teacher.crf.start[...] = [0.0, 0.0, 5.0]  # every path is I I ... I: one orphan I
    teacher.crf.trans[...] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]]
    for d, (_, path) in zip(labeled[:5], pseudo_label(teacher, labeled[:5])):
        assert path == [2] * len(d.tokens)  # not promoted to B I ... I
        assert [p for _, p in bio_to_phrases(d.tokens, path)] == [d.tokens]


def test_saved_pseudo_labels_reload_with_their_phrases(tiny_corpus, tmp_path):
    labeled, _, _ = tiny_corpus
    teacher = init_model(build_vocab(labeled), 8, 8, 0)
    for arr in encoder_tensors(teacher.encoder).values():
        arr[...] = 0.0
    teacher.crf.start[...] = [0.0, 5.0, 0.0]  # every path is B O B O ...
    teacher.crf.trans[...] = [[0.0, 5.0, 0.0], [5.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    docs = [d.doc for d in labeled[:5]]
    out = [LabeledDocument(d, path) for d, (_, path) in zip(docs, pseudo_label(teacher, docs))]
    assert all(ld.labels[:2] == (1, 0) for ld in out)
    path = tmp_path / "pseudo.jsonl"
    save_jsonl(out, path)
    reloaded = load_jsonl(path, expect_labels=True)
    assert [(d.id, d.tokens, d.labels) for d in reloaded] == [(d.id, d.tokens, d.labels) for d in out]
    assert [gold_phrases(d) for d in reloaded] == [gold_phrases(d) for d in out]


def test_pseudo_labels_build_no_phrase_spans(tiny_corpus, monkeypatch):
    labeled, _, _ = tiny_corpus
    teacher = init_model(build_vocab(labeled), 8, 8, 0)
    calls = []
    for module in (kpex.corpus, kpex.metrics):
        original = module.bio_to_phrases
        monkeypatch.setattr(
            module, "bio_to_phrases", lambda *a, f=original: calls.append(a) or f(*a)
        )
    assert len(pseudo_label(teacher, labeled[:10])) == 10
    assert calls == []


def _count_encodings_and_gold_sets(monkeypatch):
    """Count the vocabulary's encodings per token tuple (by identity) and the gold phrase sets
    built per document id."""
    encoded, golds = Counter(), Counter()
    encode, gold = kpex.corpus.Vocabulary.encode, kpex.metrics.gold_phrases

    def counting_encode(vocab, tokens):
        encoded[id(tokens)] += 1
        return encode(vocab, tokens)

    def counting_gold(doc):
        golds[doc.id] += 1
        return gold(doc)

    monkeypatch.setattr(kpex.corpus.Vocabulary, "encode", counting_encode)
    for module in (kpex.jlsd, kpex.metrics):
        monkeypatch.setattr(module, "gold_phrases", counting_gold)
    return encoded, golds


@pytest.mark.parametrize("mode", ["supervised", "jlsd", "pretrain", "joint"])
def test_a_run_encodes_and_folds_each_dev_document_once(tiny_corpus, monkeypatch, mode):
    labeled, unlabeled, dev = tiny_corpus
    encoded, golds = _count_encodings_and_gold_sets(monkeypatch)
    cfg = tiny_config(T=30, eval_every=5, teacher_T=20, source_T=20)
    if mode == "supervised":
        report = train_supervised(labeled, dev, cfg)[1]
    elif mode == "jlsd":
        report = jlsd_train(labeled, unlabeled, dev, cfg)[1]
        # an unlabeled document is encoded once per draw, by pseudo_label alone
        steps = sum(e["event"] == "iteration" for e in report.events)
        assert sum(encoded[id(d.tokens)] for d in unlabeled) == steps * cfg.unlabeled_per_batch
    else:  # the unlabeled split, labeled too, serves as the source corpus
        trainer = train_simple_pretrain if mode == "pretrain" else train_simple_joint
        report = trainer(unlabeled, labeled, dev, cfg)[1]
        assert [encoded[id(d.tokens)] for d in unlabeled] == [1] * len(unlabeled)
    if mode != "jlsd":
        assert set(encoded.values()) == {1}  # every document, trained on or not, once
    prior = report.prior_phase.eval_scores if report.prior_phase else []
    assert len(prior + report.eval_scores) >= 7
    assert golds == Counter({d.id: 1 for d in dev})
    assert [encoded[id(d.tokens)] for d in [*labeled, *dev]] == [1] * (len(labeled) + len(dev))


def test_a_training_step_lays_its_batch_out_once(tiny_corpus, monkeypatch):
    """Each step's gold and pseudo-labelled batch is laid out and its lengths checked once, and
    the forward, the CRF and the backward all take that one layout."""
    labeled, unlabeled, dev = tiny_corpus
    checks, layouts, steps = [], [], []
    check_lengths = kpex.encoder.check_lengths
    monkeypatch.setattr(kpex.encoder, "check_lengths", lambda *a: checks.append(a) or check_lengths(*a))
    for name, pick in [("encode_forward", lambda args: args[2]),
                       ("nll_and_grad", lambda args: args[3]),
                       ("encode_backward", lambda args: args[1].layout)]:
        def spy(*args, fn=getattr(kpex.jlsd, name), pick=pick, **kwargs):
            layouts.append(pick(args))
            return fn(*args, **kwargs)

        monkeypatch.setattr(kpex.jlsd, name, spy)
    batch_gradients = kpex.jlsd._batch_gradients

    def step(*args):
        checks.clear()
        layouts.clear()
        out = batch_gradients(*args)
        steps.append((len(checks), len(layouts), len({id(layout) for layout in layouts})))
        return out

    monkeypatch.setattr(kpex.jlsd, "_batch_gradients", step)
    jlsd_train(labeled, unlabeled, dev, tiny_config(T=4, teacher_T=3))
    assert steps == [(1, 3, 1)] * 7


def test_iteration_losses_are_in_order_sums_of_the_document_losses(tiny_corpus, monkeypatch):
    labeled, unlabeled, dev = tiny_corpus
    per_step = []

    def spy(*args):
        out = nll_and_grad(*args)
        per_step.append(out[0].tolist())
        return out

    monkeypatch.setattr(kpex.jlsd, "nll_and_grad", spy)
    cfg = tiny_config(T=10, teacher_T=5, r=1.5)
    report = jlsd_train(labeled, unlabeled, dev, cfg)[1]
    events = report.prior_phase.events + report.events
    steps = [e for e in events if e["event"] == "iteration"]
    assert len(steps) == len(per_step) == 15
    for i, (e, losses) in enumerate(zip(steps, per_step)):
        student = i >= cfg.teacher_T
        n_gold = cfg.batch_size  # a step's gold documents come first, then its pseudo-labeled
        assert len(losses) == n_gold + (cfg.unlabeled_per_batch if student else 0)
        gold = pseudo = 0.0
        for loss in losses[:n_gold]:
            gold += loss
        for loss in losses[n_gold:]:
            pseudo += loss
        assert e["loss_labeled"] == gold / n_gold
        assert e["loss_pseudo"] == (pseudo / (len(losses) - n_gold) if student else 0.0)
        assert e["loss"] == (gold + pseudo) / len(losses)


def test_pseudo_labels_are_deterministic(tiny_corpus):
    labeled, _, dev = tiny_corpus
    teacher, _ = train_supervised(labeled, dev, tiny_config())
    docs = [d.doc for d in labeled[:10]]
    a = pseudo_label(teacher, docs)
    b = pseudo_label(teacher, docs)
    assert [path for _, path in a] == [path for _, path in b]
    assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a, b))


def test_empty_document_list_gives_empty_result(tiny_corpus):
    labeled, _, dev = tiny_corpus
    teacher, _ = train_supervised(labeled, dev, tiny_config())
    assert pseudo_label(teacher, []) == []


def test_pseudo_labels_agree_with_extraction_metrics(tiny_corpus):
    labeled, _, dev = tiny_corpus
    teacher, _ = train_supervised(labeled, dev, tiny_config(T=120, eval_every=30))
    train_f1 = dataset_f1(teacher, labeled).f1
    relabeled = pseudo_label(teacher, labeled)
    n_pred = n_gold = n_match = 0
    for (_, path), gold in zip(relabeled, labeled):
        spans = bio_to_phrases(gold.tokens, path)
        p = {tuple(t.casefold() for t in kp) for _, kp in spans}
        g = gold_phrases(gold)
        n_pred, n_gold, n_match = n_pred + len(p), n_gold + len(g), n_match + len(p & g)
    precision = n_match / n_pred if n_pred else 0.0
    recall = n_match / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    assert f1 >= train_f1 - 1e-12


# -- self-distillation loop --------------------------------------------------


def test_jlsd_requires_unlabeled_documents(tiny_corpus):
    labeled, _, dev = tiny_corpus
    with pytest.raises(DataError, match="train_supervised"):
        jlsd_train(labeled, Dataset("u", []), dev, tiny_config())


def test_student_starts_as_an_exact_teacher_copy(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    cfg = tiny_config(T=0, teacher_T=30)
    student, report = jlsd_train(labeled, unlabeled, dev, cfg)
    vocab = build_vocab(list(labeled.documents) + [d.doc for d in unlabeled.documents])
    teacher, _ = train_supervised(
        labeled, dev, replace(cfg, seed=cfg.seed + 1, T=30), vocab=vocab
    )
    assert checkpoint_bytes(student) == checkpoint_bytes(teacher)


def test_swap_happens_only_on_strict_improvement(tiny_corpus, monkeypatch):
    labeled, unlabeled, dev = tiny_corpus
    # teacher-phase init eval (also the student's baseline), then three
    # student evals scoring 0.50, 0.50, 0.52: only the last strictly improves
    scripted = iter([0.50, 0.50, 0.50, 0.52])

    def fake_f1(model, *dev):
        return MetricReport(0, 0, next(scripted, 0.52), 0, 0, 0)

    monkeypatch.setattr(kpex.jlsd, "encoded_f1", fake_f1)
    cfg = tiny_config(T=30, eval_every=10, teacher_T=0, patience=10)
    _, report = jlsd_train(labeled, unlabeled, dev, cfg)
    assert report.swap_events == [(30, 0.50, 0.52)]


def test_the_teacher_is_always_the_best_checkpoint(tiny_corpus, monkeypatch):
    labeled, unlabeled, dev = tiny_corpus
    # teacher-phase evals at 0 and 10 (the second is its best), then student
    # evals at 10, 20, 30 and 40: the ones at 10 and 30 strictly improve
    scripted = iter([0.40, 0.50, 0.55, 0.55, 0.60, 0.60])
    evaluated, teachers = [], []

    def fake_f1(model, *dev):
        evaluated.append(checkpoint_bytes(model))
        return MetricReport(0, 0, next(scripted), 0, 0, 0)

    def spy(teacher, docs):
        teachers.append((checkpoint_bytes(teacher), len(docs)))
        return pseudo_label(teacher, docs)

    monkeypatch.setattr(kpex.jlsd, "encoded_f1", fake_f1)
    monkeypatch.setattr(kpex.jlsd, "pseudo_label", spy)
    cfg = tiny_config(T=40, eval_every=10, teacher_T=10, patience=10)
    _, report = jlsd_train(labeled, unlabeled, dev, cfg)
    assert report.swap_events == [(10, 0.50, 0.55), (30, 0.55, 0.60)]
    teacher_phase, first, second = evaluated[1], evaluated[2], evaluated[4]
    assert len({teacher_phase, first, second}) == 3  # each swap changes the teacher
    # one call per eval window of 10 iterations, labeling all of its draws
    k = cfg.unlabeled_per_batch
    assert teachers == [(t, 10 * k) for t in (teacher_phase, first, first, second)]


def test_student_baseline_is_the_teacher_best_score_without_a_dev_eval(
    tiny_corpus, monkeypatch
):
    labeled, unlabeled, dev = tiny_corpus
    calls = []
    monkeypatch.setattr(
        kpex.jlsd, "encoded_f1", lambda model, *dev: calls.append(dev) or encoded_f1(model, *dev)
    )
    cfg = tiny_config(T=0, teacher_T=20, eval_every=10)
    student, report = jlsd_train(labeled, unlabeled, dev, cfg)
    assert len(calls) == 3  # the teacher's evals at iterations 0, 10 and 20
    [baseline] = [e for e in report.events if e["event"] == "eval"]
    assert baseline["dev_f1"] == report.prior_phase.best_score == dataset_f1(student, dev).f1


def test_swap_scores_strictly_increase(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    _, report = jlsd_train(labeled, unlabeled, dev, tiny_config(T=80, eval_every=20))
    scores = [new for _, _, new in report.swap_events]
    assert scores == sorted(scores)
    assert len(set(scores)) == len(scores)


def test_pseudo_loss_is_reported_separately(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    _, report = jlsd_train(labeled, unlabeled, dev, tiny_config(T=10, teacher_T=10))
    its = [e for e in report.events if e["event"] == "iteration"]
    assert all(e["loss_pseudo"] != 0.0 or e["loss"] == e["loss_labeled"] for e in its)
    assert any(e["loss_pseudo"] != 0.0 for e in its)


def test_jlsd_rerun_is_byte_identical(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    cfg = tiny_config(T=30, teacher_T=20)
    m1, r1 = jlsd_train(labeled, unlabeled, dev, cfg)
    m2, r2 = jlsd_train(labeled, unlabeled, dev, cfg)
    assert checkpoint_bytes(m1) == checkpoint_bytes(m2)
    assert r1.to_jsonl() == r2.to_jsonl()


# -- eval windows ------------------------------------------------------------


def _spy_pseudo_label(monkeypatch, split=None):
    """Record each pseudo_label call's document ids; with ``split``, label
    every ``split`` documents in a call of their own."""
    calls = []

    def spy(teacher, docs):
        calls.append([d.id for d in docs])
        chunks = [docs[i : i + split] for i in range(0, len(docs), split)] if split else [docs]
        return [ld for chunk in chunks for ld in pseudo_label(teacher, chunk)]

    monkeypatch.setattr(kpex.jlsd, "pseudo_label", spy)
    return calls


def _run_bytes(labeled, unlabeled, dev, cfg):
    model, report = jlsd_train(labeled, unlabeled, dev, cfg)
    return checkpoint_bytes(model), report.to_jsonl()


@pytest.mark.parametrize(
    "overrides, window_ends",
    [
        (dict(T=25, patience=10), [10, 20, 25]),  # every eval, and a T off the eval grid
        (dict(T=45, patience=2), [10, 20]),  # two stale evals stop the run at 20
    ],
)
def test_windows_label_the_per_iteration_draws_in_order(
    tiny_corpus, monkeypatch, overrides, window_ends
):
    labeled, unlabeled, dev = tiny_corpus
    flat = MetricReport(0, 0, 0.5, 0, 0, 0)  # no eval improves
    monkeypatch.setattr(kpex.jlsd, "encoded_f1", lambda model, *dev: flat)
    calls = _spy_pseudo_label(monkeypatch)
    cfg = tiny_config(eval_every=10, teacher_T=0, r=0.75, **overrides)
    _, report = jlsd_train(labeled, unlabeled, dev, cfg)
    stopped = [e["iteration"] for e in report.events if e["event"] == "early_stop"]
    assert stopped == ([20] if cfg.patience == 2 else [])

    # the draws of one iteration at a time, as each training step takes them
    rng, k = kpex.jlsd._seed_stream(cfg, 1), cfg.unlabeled_per_batch
    draws = []
    for _ in range(window_ends[-1]):
        sample_batch(labeled, cfg.batch_size, rng)
        draws.append([d.id for d in sample_batch(unlabeled, k, rng)])
    starts = [0] + window_ends[:-1]
    assert calls == [sum(draws[a:b], []) for a, b in zip(starts, window_ends)]


def test_window_labels_equal_per_draw_labels(tiny_corpus, monkeypatch):
    labeled, unlabeled, dev = tiny_corpus
    cfg = tiny_config(T=30, eval_every=10, teacher_T=20, r=0.5)
    unspied = _run_bytes(labeled, unlabeled, dev, cfg)
    calls = _spy_pseudo_label(monkeypatch, split=cfg.unlabeled_per_batch)
    assert _run_bytes(labeled, unlabeled, dev, cfg) == unspied
    assert [len(c) for c in calls] == [10 * cfg.unlabeled_per_batch] * 3


@pytest.mark.parametrize(
    "max_draw, window_lengths",
    [
        (5, [1] * 10),  # below one step's 8 documents: one iteration per window
        (30, [3, 3, 3, 1]),  # 3 steps' draws fit; the eval at 10 cuts the fourth window
    ],
)
def test_a_window_draws_at_most_max_draw_documents(
    tiny_corpus, monkeypatch, max_draw, window_lengths
):
    labeled, unlabeled, dev = tiny_corpus
    cfg = tiny_config(T=30, eval_every=10, teacher_T=10)
    unpatched = _run_bytes(labeled, unlabeled, dev, cfg)
    monkeypatch.setattr(kpex.jlsd, "MAX_DRAW", max_draw)
    calls = _spy_pseudo_label(monkeypatch)
    assert _run_bytes(labeled, unlabeled, dev, cfg) == unpatched
    k = cfg.unlabeled_per_batch
    assert [len(c) for c in calls] == [n * k for n in window_lengths] * 3
    step = cfg.batch_size + k
    assert all(len(c) // k * step <= max(max_draw, step) for c in calls)


def test_vanishing_ratio_matches_supervised_continuation(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    cfg = tiny_config(T=40, eval_every=20, r=0.01)  # k = 0 every iteration
    assert cfg.unlabeled_per_batch == 0
    student, jl_report = jlsd_train(labeled, unlabeled, dev, cfg)

    vocab = build_vocab(list(labeled.documents) + [d.doc for d in unlabeled.documents])
    teacher, _ = train_supervised(
        labeled, dev, replace(cfg, seed=cfg.seed + 1), vocab=vocab
    )
    continued, sup_report = train_supervised(labeled, dev, cfg, init=teacher)

    assert checkpoint_bytes(student) == checkpoint_bytes(continued)
    jl_losses = [e for e in jl_report.events if e["event"] == "iteration"]
    sup_losses = [e for e in sup_report.events if e["event"] == "iteration"]
    assert jl_losses == sup_losses
    assert jl_report.eval_scores == sup_report.eval_scores


# -- simple pretraining ------------------------------------------------------


def test_pretrain_with_zero_source_iterations_is_plain_supervised(tiny_corpus):
    labeled, _, dev = tiny_corpus
    cfg = tiny_config(source_T=0)
    pre_model, pre_report = train_simple_pretrain(labeled, labeled, dev, cfg)
    sup_model, sup_report = train_supervised(labeled, dev, tiny_config())
    assert checkpoint_bytes(pre_model) == checkpoint_bytes(sup_model)
    assert pre_report.events == sup_report.events
    assert pre_report.prior_phase is not None
    assert [e for e in pre_report.prior_phase.events if e["event"] == "iteration"] == []


def test_pretrain_source_equals_target_doubles_the_budget(tiny_corpus):
    labeled, _, dev = tiny_corpus
    cfg = tiny_config(T=20, eval_every=10)
    _, report = train_simple_pretrain(labeled, labeled, dev, cfg)
    source_iters = [e for e in report.prior_phase.events if e["event"] == "iteration"]
    target_iters = [e for e in report.events if e["event"] == "iteration"]
    assert len(source_iters) == 20 and len(target_iters) == 20


def test_pretrain_on_a_related_source_tracks_the_baseline():
    # source and target share the planted rule, so warm-starting from the
    # source phase must not hurt the target score beyond noise
    ds = gen_synthetic(17, 300, vocab_size=80, keyword_fraction=0.25)
    source, target, dev = split_dataset(ds, [180, 80, 40])
    cfg = tiny_config(T=150, eval_every=30, patience=5, embed_dim=12, hidden_dim=12)
    baseline, base_report = train_supervised(target, dev, cfg)
    warmed, pre_report = train_simple_pretrain(source, target, dev, cfg)
    assert pre_report.best_score >= base_report.best_score - 0.01


def test_pretrain_target_phase_starts_from_the_source_score_without_a_dev_decode(
    tiny_corpus, monkeypatch
):
    labeled, source, dev = tiny_corpus  # the unlabeled split keeps its labels: a source here
    calls = []
    monkeypatch.setattr(
        kpex.jlsd, "encoded_f1", lambda model, *dev: calls.append(dev) or encoded_f1(model, *dev)
    )
    cfg = tiny_config(T=60, eval_every=10, source_T=30, patience=10)
    _, report = train_simple_pretrain(source, labeled, dev, cfg)
    assert len(calls) == 10  # the source phase's evals at 0-30, the target phase's at 10-60
    vocab = build_vocab(list(source.documents) + list(labeled.documents))
    source_best, _ = train_supervised(source, dev, replace(cfg, T=30), vocab=vocab)
    baseline = report.events[0]
    assert baseline["event"] == "eval" and baseline["iteration"] == 0
    assert baseline["dev_f1"] == report.prior_phase.best_score == dataset_f1(source_best, dev).f1


def test_pretrain_rejects_unlabeled_source(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    plain = Dataset("u", [d.doc for d in unlabeled.documents[:10]])
    with pytest.raises(DataError, match="source"):
        train_simple_pretrain(plain, labeled, dev, tiny_config())


# -- simple joint training ---------------------------------------------------


def test_joint_with_empty_source_pool_is_plain_supervised(tiny_corpus):
    labeled, _, dev = tiny_corpus
    cfg = tiny_config(source_pool_size=0)
    j_model, j_report = train_simple_joint(labeled, labeled, dev, cfg)
    s_model, s_report = train_supervised(labeled, dev, tiny_config())
    assert checkpoint_bytes(j_model) == checkpoint_bytes(s_model)
    assert j_report.events == s_report.events


def test_joint_pool_is_twice_the_target_each_epoch(tiny_corpus):
    labeled, unlabeled, dev = tiny_corpus
    source = Dataset("src", [d for d in gen_synthetic(4, 80, 60, 0.25)])
    cfg = tiny_config(T=40, eval_every=20)
    _, report = train_simple_joint(source, labeled, dev, cfg)
    refreshes = [e for e in report.events if e["event"] == "pool_refresh"]
    assert refreshes, "expected at least one epoch"
    assert all(e["pool_size"] == 2 * len(labeled) for e in refreshes)
    # refresh cadence: every ceil(pool / batch) iterations
    epoch_len = -(-2 * len(labeled) // cfg.batch_size)
    assert [e["iteration"] for e in refreshes] == list(range(1, cfg.T + 1, epoch_len))


def test_joint_reruns_reproduce_epoch_pools(tiny_corpus):
    labeled, _, dev = tiny_corpus
    source = Dataset("src", [d for d in gen_synthetic(4, 80, 60, 0.25)])
    cfg = tiny_config(T=30)
    m1, r1 = train_simple_joint(source, labeled, dev, cfg)
    m2, r2 = train_simple_joint(source, labeled, dev, cfg)
    assert checkpoint_bytes(m1) == checkpoint_bytes(m2)
    assert r1.to_jsonl() == r2.to_jsonl()
