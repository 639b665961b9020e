"""Turning the tagger into a ranking model: confidence scores and F1@k.

The tagger decodes one label sequence per document, so by itself it neither
ranks nor limits its predictions. For comparison against ranking systems,
every decoded phrase gets a confidence: the product of its tokens' posterior
label marginals (an independence approximation over the span). Sorting by
confidence yields a ranked list that can be cut at k.

Run with::

    python3 demos/phrase_ranking.py
"""

from kpex import (
    JlsdConfig,
    evaluate,
    gen_synthetic,
    split_dataset,
    train_supervised,
)
from kpex.metrics import f1_at_k, gold_phrases, rank_phrases


def main():
    corpus = gen_synthetic(seed=5, n_docs=400, vocab_size=100, keyword_fraction=0.3)
    train, dev, test = split_dataset(corpus, [280, 60, 60])
    config = JlsdConfig(T=500, eval_every=50, patience=4, seed=2,
                        embed_dim=24, hidden_dim=24, lr_lower=5e-3, lr_upper=5e-3)
    model, _ = train_supervised(train, dev, config)

    doc = test[1]
    print(f"document {doc.doc.id}: {' '.join(doc.doc.tokens)}")
    ranked = rank_phrases(model, doc)
    gold = gold_phrases(doc)
    print(f"\n{'rank':<5} {'phrase':<26} {'confidence':<11} in gold?")
    for i, p in enumerate(ranked, 1):
        print(f"{i:<5} {' '.join(p.phrase):<26} {p.confidence:<11.4f} "
              f"{'yes' if p.phrase in gold else 'no'}")

    print("\nper-document scores at increasing cutoffs:")
    for k in (1, 2, 5):
        rep = f1_at_k(ranked, gold, k)
        print(f"  F1@{k}: {rep.f1:.3f} (P {rep.precision:.3f}, R {rep.recall:.3f})")

    print("\ndataset-level ranked evaluation on the test split:")
    for k in (5, 10, 15):
        rep = evaluate(model, test, k)[f"f1@{k}"]
        print(f"  F1@{k:<2}: {rep.f1:.3f}")


if __name__ == "__main__":
    main()
