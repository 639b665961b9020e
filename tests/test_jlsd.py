import math
from dataclasses import replace

import pytest

import kpex.jlsd
from kpex import (
    ConfigError,
    DataError,
    Dataset,
    JlsdConfig,
    build_vocab,
    gen_synthetic,
    init_model,
    jlsd_train,
    pseudo_label,
    split_dataset,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from kpex.encoder import encoder_tensors
from kpex.metrics import MetricReport, dataset_f1, gold_phrases
from kpex.model import checkpoint_bytes


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
    JlsdConfig(seed=0, lr_lower=0.0, lr_upper=0.0)  # the bounds themselves are valid


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
    out = pseudo_label(teacher, [d.doc for d in labeled[:5]])
    assert all(set(ld.labels) == {0} for ld in out)
    assert all(ld.label_source == "pseudo" for ld in out)
    assert all(ld.keyphrases == frozenset() for ld in out)


def test_pseudo_labels_are_deterministic(tiny_corpus):
    labeled, _, dev = tiny_corpus
    teacher, _ = train_supervised(labeled, dev, tiny_config())
    docs = [d.doc for d in labeled[:10]]
    a = pseudo_label(teacher, docs)
    b = pseudo_label(teacher, docs)
    assert [x.labels for x in a] == [y.labels for y in b]


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
    for pseudo, gold in zip(relabeled, labeled):
        p = {tuple(t.casefold() for t in kp) for kp in pseudo.keyphrases}
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

    def fake_f1(model, dataset):
        return MetricReport(0, 0, next(scripted, 0.52), 0, 0, 0)

    monkeypatch.setattr(kpex.jlsd, "dataset_f1", fake_f1)
    cfg = tiny_config(T=30, eval_every=10, teacher_T=0, patience=10)
    _, report = jlsd_train(labeled, unlabeled, dev, cfg)
    assert report.swap_events == [(30, 0.50, 0.52)]


def test_student_baseline_is_the_teacher_best_score_without_a_dev_eval(
    tiny_corpus, monkeypatch
):
    labeled, unlabeled, dev = tiny_corpus
    calls = []
    monkeypatch.setattr(
        kpex.jlsd, "dataset_f1", lambda model, data: calls.append(data) or dataset_f1(model, data)
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
