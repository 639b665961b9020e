"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s``). Expected values come from
independent oracles: exhaustive enumeration, finite differences, and
direct reimplementation."""

import time
from dataclasses import replace

import numpy as np
import pytest

from kpex import (
    JlsdConfig,
    build_vocab,
    dataset_f1,
    f1_at_k,
    gen_synthetic,
    jlsd_train,
    split_dataset,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from kpex.corpus import bio_to_phrases, keyphrases_to_bio
from kpex.crf import CrfParams
from kpex.encoder import EncoderDims, encoder_tensors, init_params
from kpex.metrics import PhrasePrediction, rank_predictions
from kpex.model import checkpoint_bytes

from one_doc import encode_backward, encode_forward, log_partition, marginals, nll_and_grad, viterbi
from oracles import (
    brute_force_crf,
    central_difference_grad,
    f1_reference,
    leftmost_longest_spans,
    relative_error,
)


def announce(number: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_crf_inference_matches_enumeration():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_z = worst_marg = 0.0
    for i in range(200):
        n = 1 + i % 6
        emissions = rng.normal(size=(n, 3))
        crf = CrfParams(
            trans=rng.normal(size=(3, 3)), start=rng.normal(size=3), end=rng.normal(size=3)
        )
        ref = brute_force_crf(emissions, crf.trans, crf.start, crf.end)

        worst_z = max(worst_z, abs(log_partition(emissions, crf) - ref["log_z"]))
        path, score = viterbi(emissions, crf)
        assert score == ref["max_score"], "decoded score must equal the enumerated maximum"
        assert tuple(path) == ref["best_path"], "decoded path must attain the maximum"
        worst_marg = max(
            worst_marg, np.abs(marginals(emissions, crf) - ref["marginals"]).max()
        )
    elapsed = time.perf_counter() - t0
    announce(
        1,
        "log-partition, Viterbi, and marginals match brute-force enumeration",
        worst_z <= 1e-10 and worst_marg <= 1e-10 and elapsed < 10.0,
        f"max logZ err {worst_z:.2e}, max marginal err {worst_marg:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_full_model_gradients_match_finite_differences():
    t0 = time.perf_counter()
    dims = EncoderDims(vocab_size=9, embed_dim=4, hidden_dim=3)
    worst_full = worst_crf = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        enc = init_params(dims, rng)
        crf = CrfParams(
            trans=rng.normal(size=(3, 3)) * 0.3,
            start=rng.normal(size=3) * 0.3,
            end=rng.normal(size=3) * 0.3,
        )
        ids = rng.integers(1, dims.vocab_size, 5)
        gold = rng.integers(0, 3, 5)
        tensors = {**encoder_tensors(enc), "crf.trans": crf.trans,
                   "crf.start": crf.start, "crf.end": crf.end}

        def loss():
            emissions, _ = encode_forward(enc, ids)
            return nll_and_grad(emissions, crf, gold)[0]

        emissions, cache = encode_forward(enc, ids)
        _, d_emissions, d_crf = nll_and_grad(emissions, crf, gold)
        analytic = encode_backward(enc, cache, d_emissions)
        analytic.update({"crf.trans": d_crf.trans, "crf.start": d_crf.start,
                         "crf.end": d_crf.end})

        for name, arr in tensors.items():
            numeric = central_difference_grad(loss, arr, step=1e-3)
            if name == "embed":
                numeric[0] = 0.0  # frozen PAD row
            err = relative_error(analytic[name], numeric)
            worst_full = max(worst_full, err)

        # CRF-only gradients at fixed emissions, tighter tolerance
        def crf_loss():
            return nll_and_grad(emissions, crf, gold)[0]

        for analytic_arr, arr in (
            (d_crf.trans, crf.trans), (d_crf.start, crf.start), (d_crf.end, crf.end),
        ):
            numeric = central_difference_grad(crf_loss, arr, step=1e-3)
            worst_crf = max(worst_crf, relative_error(analytic_arr, numeric))
    elapsed = time.perf_counter() - t0
    announce(
        2,
        "end-to-end analytic gradients match central finite differences",
        worst_full <= 1e-4 and worst_crf <= 1e-6 and elapsed < 30.0,
        f"full-model err {worst_full:.2e}, CRF-only err {worst_crf:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_bio_round_trip_over_randomized_configurations():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        alphabet = [f"v{i}" for i in range(int(rng.integers(2, 9)))]
        tokens = [alphabet[int(j)] for j in rng.integers(0, len(alphabet), n)]
        phrases = set()
        for _ in range(int(rng.integers(0, 6))):
            if rng.random() < 0.7:
                s = int(rng.integers(0, n))
                e = min(n, s + int(rng.integers(1, 4)))
                phrases.add(tuple(tokens[s:e]))
            else:
                length = int(rng.integers(1, 4))
                phrases.add(
                    tuple(alphabet[int(j)] for j in rng.integers(0, len(alphabet), length))
                )
        labels = keyphrases_to_bio(tokens, phrases)
        recovered = [
            ((s, e), tuple(t.casefold() for t in p))
            for (s, e), p in bio_to_phrases(tokens, labels)
        ]
        if recovered != leftmost_longest_spans(tokens, phrases):
            failures += 1
    announce(
        3,
        "BIO labeling round-trips exactly on 1000 randomized documents",
        failures == 0,
        f"{failures} mismatches",
    )


def test_criterion_4_supervised_training_learns_the_planted_rule(trained_standard):
    test_f1 = dataset_f1(trained_standard.model, trained_standard.test).f1
    iterations = max(
        e["iteration"] for e in trained_standard.report.events if e["event"] == "iteration"
    )
    ok = (
        test_f1 >= 0.90
        and iterations <= 2000
        and trained_standard.config.T == 2000
        and trained_standard.elapsed < 180.0
    )
    announce(
        4,
        "supervised baseline reaches test F1 >= 0.90 on the 500/100/100 corpus",
        ok,
        f"F1 {test_f1:.3f} after {iterations} iterations in {trained_standard.elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def distillation_setting():
    ds = gen_synthetic(11, 2300, vocab_size=1200, keyword_fraction=0.3)
    return split_dataset(ds, [100, 2000, 100, 100],
                         names=["labeled", "unlabeled", "dev", "test"])


def test_criterion_5_self_distillation_tracks_or_beats_the_baseline(distillation_setting):
    labeled, unlabeled, dev, test = distillation_setting
    sup_scores, jlsd_scores = [], []
    swaps_monotone = True
    for seed in (0, 1, 2):
        cfg = JlsdConfig(
            T=600, teacher_T=800, eval_every=50, patience=4, batch_size=8,
            embed_dim=32, hidden_dim=32, seed=seed,
        )
        sup_model, _ = train_supervised(labeled, dev, replace(cfg, T=800))
        sup_scores.append(dataset_f1(sup_model, test).f1)
        jl_model, jl_report = jlsd_train(labeled, unlabeled, dev, cfg)
        jlsd_scores.append(dataset_f1(jl_model, test).f1)
        new_scores = [new for _, _, new in jl_report.swap_events]
        swaps_monotone &= all(b > a for a, b in zip(new_scores, new_scores[1:]))

    mean_sup = float(np.mean(sup_scores))
    mean_jlsd = float(np.mean(jlsd_scores))

    # vanishing-ratio equivalence: with zero unlabeled documents per batch the
    # student loop must reproduce a supervised continuation step for step
    small = gen_synthetic(3, 300, vocab_size=60, keyword_fraction=0.25)
    s_lab, s_unl, s_dev = split_dataset(small, [50, 200, 30])
    small_cfg = JlsdConfig(
        T=40, eval_every=20, batch_size=4, seed=9, r=0.01,
        embed_dim=8, hidden_dim=8, lr_lower=1e-2, lr_upper=1e-2,
    )
    student, jl_rep = jlsd_train(s_lab, s_unl, s_dev, small_cfg)
    vocab = build_vocab(list(s_lab.documents) + [d.doc for d in s_unl.documents])
    teacher, _ = train_supervised(
        s_lab, s_dev, replace(small_cfg, seed=small_cfg.seed + 1), vocab=vocab
    )
    continued, sup_rep = train_supervised(s_lab, s_dev, small_cfg, init=teacher)
    equivalent = (
        checkpoint_bytes(student) == checkpoint_bytes(continued)
        and [e for e in jl_rep.events if e["event"] == "iteration"]
        == [e for e in sup_rep.events if e["event"] == "iteration"]
    )

    ok = mean_jlsd >= mean_sup - 0.01 and swaps_monotone and equivalent
    announce(
        5,
        "self-distillation matches or beats the 100-document baseline",
        ok,
        f"baseline {mean_sup:.3f}, distilled {mean_jlsd:.3f}, "
        f"improvement {mean_jlsd - mean_sup:+.3f}; swaps monotone: {swaps_monotone}; "
        f"vanishing-ratio equivalence: {equivalent}",
    )


def test_criterion_6_transfer_modes_run_and_degenerate_to_the_baseline():
    ds = gen_synthetic(21, 700, vocab_size=120, keyword_fraction=0.25)
    source, target_train, dev, test = split_dataset(ds, [400, 150, 75, 75])
    cfg = JlsdConfig(
        T=200, eval_every=50, patience=3, embed_dim=16, hidden_dim=16,
        lr_lower=1e-2, lr_upper=1e-2, seed=5,
    )
    pre_model, pre_report = train_simple_pretrain(source, target_train, dev, cfg)
    joint_model, joint_report = train_simple_joint(source, target_train, dev, cfg)
    ran = (
        pre_report.prior_phase is not None
        and len(pre_report.to_jsonl().splitlines()) > 2
        and len(joint_report.to_jsonl().splitlines()) > 2
        and any(e["event"] == "pool_refresh" for e in joint_report.events)
    )

    ident_cfg = replace(cfg, T=40, eval_every=20, embed_dim=8, hidden_dim=8)
    base_model, base_report = train_supervised(target_train, dev, ident_cfg)
    p_model, p_report = train_simple_pretrain(
        target_train, target_train, dev, replace(ident_cfg, source_T=0)
    )
    j_model, j_report = train_simple_joint(
        target_train, target_train, dev, replace(ident_cfg, source_pool_size=0)
    )
    identical = (
        checkpoint_bytes(p_model) == checkpoint_bytes(base_model)
        and checkpoint_bytes(j_model) == checkpoint_bytes(base_model)
        and p_report.events == base_report.events
        and j_report.events == base_report.events
    )
    announce(
        6,
        "pretraining and joint training complete; degenerate cases equal the baseline bit-for-bit",
        ran and identical,
        f"pretrain dev F1 {pre_report.best_score:.3f}, joint dev F1 {joint_report.best_score:.3f}",
    )


def test_criterion_7_fixed_seeds_reproduce_checkpoints_and_reports():
    ds = gen_synthetic(8, 260, vocab_size=60, keyword_fraction=0.25)
    labeled, unlabeled, dev = split_dataset(ds, [40, 180, 40])
    cfg = JlsdConfig(
        T=30, teacher_T=20, eval_every=10, batch_size=4, seed=13,
        embed_dim=8, hidden_dim=8,
    )
    sup = [train_supervised(labeled, dev, cfg) for _ in range(2)]
    jls = [jlsd_train(labeled, unlabeled, dev, cfg) for _ in range(2)]
    ok = (
        checkpoint_bytes(sup[0][0]) == checkpoint_bytes(sup[1][0])
        and sup[0][1].to_jsonl() == sup[1][1].to_jsonl()
        and checkpoint_bytes(jls[0][0]) == checkpoint_bytes(jls[1][0])
        and jls[0][1].to_jsonl() == jls[1][1].to_jsonl()
    )
    announce(
        7,
        "reruns with a fixed seed yield byte-identical checkpoints and reports",
        ok,
    )


def test_criterion_8_ranking_matches_reference_and_is_transform_invariant():
    rng = np.random.default_rng(88)
    universe = [(f"w{i}",) for i in range(20)]
    match_ok = True
    for _ in range(100):
        n = int(rng.integers(0, 12))
        ranked = rank_predictions(
            [
                PhrasePrediction(universe[i], (int(rng.integers(0, 30)), 0), float(rng.random()))
                for i in rng.choice(20, n, replace=False)
            ]
        )
        gold = {universe[i] for i in rng.choice(20, rng.integers(1, 8), replace=False)}
        for k in (5, 10, 15):
            rep = f1_at_k(ranked, gold, k)
            p, r, f1 = f1_reference({p.phrase for p in ranked[:k]}, gold)
            match_ok &= (
                abs(rep.precision - p) < 1e-12
                and abs(rep.recall - r) < 1e-12
                and abs(rep.f1 - f1) < 1e-12
            )

    preds = [
        PhrasePrediction(universe[i], (int(rng.integers(0, 30)), 0), float(c))
        for i, c in enumerate(rng.random(15))
    ]
    preds.append(PhrasePrediction(("tie", "x"), (4, 6), preds[0].confidence))
    base_order = [p.phrase for p in rank_predictions(preds)]
    transform_ok = True
    for transform in (np.exp, np.sqrt, lambda c: 5.0 * c + 1.0):
        mapped = [
            PhrasePrediction(p.phrase, p.span, float(transform(p.confidence))) for p in preds
        ]
        transform_ok &= [p.phrase for p in rank_predictions(mapped)] == base_order

    announce(
        8,
        "top-k scoring matches reference recomputation; ranking is invariant "
        "under monotone confidence transforms",
        match_ok and transform_ok,
    )
