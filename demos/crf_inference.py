"""Linear-chain CRF inference, cross-checked against exhaustive enumeration.

Builds a small random scoring instance over the three BIO labels and walks
through the three inference routines: the log-partition function, Viterbi
decoding, and posterior marginals. Every quantity is recomputed by brute
force over all 3^n label sequences to show the dynamic programs are exact.

Run with::

    python3 demos/crf_inference.py
"""

import itertools

import numpy as np

from kpex.crf import CrfParams, log_partition, marginals, viterbi
from kpex.encoder import pack

LABELS = "OBI"


def enumerate_all(emissions, crf):
    n = emissions.shape[0]
    scores = {}
    for path in itertools.product(range(3), repeat=n):
        s = crf.start[path[0]] + emissions[0, path[0]]
        for t in range(1, n):
            s += crf.trans[path[t - 1], path[t]] + emissions[t, path[t]]
        scores[path] = s + crf.end[path[-1]]
    return scores


def main():
    rng = np.random.default_rng(0)
    n = 5
    emissions = rng.normal(size=(n, 3))
    crf = CrfParams(
        trans=rng.normal(size=(3, 3)) * 0.5,
        start=rng.normal(size=3) * 0.5,
        end=rng.normal(size=3) * 0.5,
    )

    print("=" * 64)
    print(f"Random instance: {n} positions, 3 labels, {3 ** n} label sequences")
    print("=" * 64)

    scores = enumerate_all(emissions, crf)
    values = np.array(list(scores.values()))

    print("\n-- log partition function --")
    layout = pack([n])  # one document: a batch whose packed rows are its own, in order
    log_z = log_partition(emissions, crf, layout)[0]
    shift = values.max()
    brute = shift + np.log(np.exp(values - shift).sum())
    print(f"forward recursion: {log_z:.12f}")
    print(f"enumeration:       {brute:.12f}")
    print(f"difference:        {abs(log_z - brute):.2e}")

    print("\n-- Viterbi decoding --")
    path, scores_ = viterbi(emissions, crf, layout)
    score = scores_[0]
    best = max(scores, key=scores.get)
    print(f"decoded:    {''.join(LABELS[l] for l in path)}  score {score:.6f}")
    print(f"enumerated: {''.join(LABELS[l] for l in best)}  score {scores[best]:.6f}")
    print(f"probability of the best sequence: {np.exp(score - log_z):.4f}")

    print("\n-- posterior marginals --")
    probs = marginals(emissions, crf, layout)
    brute_probs = np.zeros((n, 3))
    for p, s in scores.items():
        for t, lab in enumerate(p):
            brute_probs[t, lab] += np.exp(s - brute)
    print("position  P(O)    P(B)    P(I)    row sum   max |err|")
    for t in range(n):
        err = np.abs(probs[t] - brute_probs[t]).max()
        print(
            f"{t:>8}  {probs[t][0]:.4f}  {probs[t][1]:.4f}  {probs[t][2]:.4f}"
            f"  {probs[t].sum():.6f}  {err:.2e}"
        )

    print("\nAll three routines agree with enumeration to float precision.")


if __name__ == "__main__":
    main()
