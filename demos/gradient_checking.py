"""Finite-difference verification of the full analytic backward pass.

The training loss is the CRF negative log-likelihood of gold label
sequences, summed over a packed batch of two documents, differentiated
through the CRF, the dense projection, both LSTM directions, and the
embedding table. This script perturbs every parameter
coordinate and compares central differences against the analytic gradient,
tensor by tensor.

Run with::

    python3 demos/gradient_checking.py
"""

import numpy as np

from kpex.crf import CrfParams, nll_and_grad
from kpex.encoder import (
    EncoderDims, encode_backward, encode_forward, encoder_tensors, init_params, pack,
)


def central_differences(f, arr, step=1e-3):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + step
        up = f()
        arr[idx] = keep - step
        down = f()
        arr[idx] = keep
        grad[idx] = (up - down) / (2 * step)
    return grad


def main():
    rng = np.random.default_rng(1)
    dims = EncoderDims(vocab_size=9, embed_dim=4, hidden_dim=3)
    encoder = init_params(dims, rng)
    crf = CrfParams(
        trans=rng.normal(size=(3, 3)) * 0.3,
        start=rng.normal(size=3) * 0.3,
        end=rng.normal(size=3) * 0.3,
    )
    # two documents of 5 and 3 tokens, laid out once as one packed batch of 8 rows
    layout = pack([5, 3])
    token_ids = layout.rows([rng.integers(1, dims.vocab_size, n) for n in (5, 3)])
    gold = layout.rows([rng.integers(0, 3, n) for n in (5, 3)])

    def loss():
        emissions, _ = encode_forward(encoder, token_ids, layout)
        return nll_and_grad(emissions, crf, gold, layout)[0].sum()

    emissions, cache = encode_forward(encoder, token_ids, layout)
    losses, d_emissions, d_crf = nll_and_grad(emissions, crf, gold, layout)
    value = losses.sum()
    analytic = encode_backward(encoder, cache, d_emissions)
    analytic.update({"crf.trans": d_crf.trans, "crf.start": d_crf.start, "crf.end": d_crf.end})
    tensors = {
        **encoder_tensors(encoder),
        "crf.trans": crf.trans, "crf.start": crf.start, "crf.end": crf.end,
    }

    print("=" * 64)
    print(f"loss = {value:.6f} summed over documents of {layout.lengths.tolist()} tokens "
          f"({sum(a.size for a in tensors.values())} parameters)")
    print("=" * 64)
    print(f"{'tensor':<14} {'shape':<10} {'|analytic|':>12} {'max diff':>12} {'rel err':>10}")
    worst = 0.0
    for name, arr in tensors.items():
        numeric = central_differences(loss, arr)
        if name == "embed":
            numeric[0] = 0.0  # padding row is frozen
        diff = np.abs(analytic[name] - numeric).max()
        scale = max(np.abs(analytic[name]).max(), np.abs(numeric).max(), 1e-8)
        rel = diff / scale
        worst = max(worst, rel)
        print(f"{name:<14} {str(arr.shape):<10} {np.abs(analytic[name]).max():>12.4e} "
              f"{diff:>12.4e} {rel:>10.2e}")
    print(f"\nworst relative error: {worst:.2e} (double precision, step 1e-3)")


if __name__ == "__main__":
    main()
