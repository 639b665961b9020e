"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (exhaustive
enumeration, elementwise finite differences, nested-loop matching) and must
stay independent of the code paths it checks.
"""

import itertools

import numpy as np


def all_paths(n: int, num_labels: int = 3):
    return itertools.product(range(num_labels), repeat=n)


def path_score(emissions, trans, start, end, path) -> float:
    # left-to-right accumulation: start, then emission/transition per step, then end
    score = start[path[0]] + emissions[0][path[0]]
    for t in range(1, len(path)):
        score = score + trans[path[t - 1]][path[t]] + emissions[t][path[t]]
    return score + end[path[-1]]


def brute_force_crf(emissions, trans, start, end):
    """Exhaustive log-partition, best path, and posterior marginals."""
    n, num_labels = emissions.shape
    paths = list(all_paths(n, num_labels))
    scores = np.array([path_score(emissions, trans, start, end, p) for p in paths])

    shift = scores.max()
    log_z = shift + np.log(np.exp(scores - shift).sum())

    best_idx = int(np.argmax(scores))
    posterior = np.zeros((n, num_labels))
    weights = np.exp(scores - log_z)
    for path, w in zip(paths, weights):
        for t, lab in enumerate(path):
            posterior[t, lab] += w
    return {
        "log_z": float(log_z),
        "max_score": float(scores[best_idx]),
        "best_path": paths[best_idx],
        "marginals": posterior,
        "scores": scores,
        "paths": paths,
    }


def longdouble_forward_backward(emissions, trans, start, end):
    """log Z and posterior marginals of one document from the textbook log-space
    forward and backward recursions, unshifted, in extended precision."""
    e = np.asarray(emissions, dtype=np.longdouble)
    trans, start, end = (np.asarray(a, dtype=np.longdouble) for a in (trans, start, end))
    alpha, beta = np.empty_like(e), np.empty_like(e)
    alpha[0] = start + e[0]
    for t in range(1, len(e)):
        alpha[t] = np.logaddexp.reduce(alpha[t - 1][:, None] + trans, axis=0) + e[t]
    beta[-1] = end
    for t in range(len(e) - 2, -1, -1):
        beta[t] = np.logaddexp.reduce(trans + e[t + 1] + beta[t + 1], axis=1)
    log_z = np.logaddexp.reduce(alpha[-1] + end)
    return log_z, np.exp(alpha + beta - log_z)


def reduce_alphas(emissions, trans, first, shift=None, reduce=np.logaddexp.reduce):
    """The textbook forward recursion that ``kpex.crf._alphas`` runs label-major, here in the
    emissions' own ``(n, ..., L)`` layout: ``trans`` is ``(..., L, L)``, ``first`` ``(..., L)``,
    and each step reduces over the previous-label axis -2. With ``shift``, each step's label-0
    score moves into it."""
    alpha = np.empty_like(emissions)
    alpha[0] = first + emissions[0]
    for t in range(emissions.shape[0]):
        if t:
            alpha[t] = reduce(alpha[t - 1][..., :, None] + trans, axis=-2) + emissions[t]
        if shift is not None:
            shift[t], alpha[t] = alpha[t, ..., 0], alpha[t] - alpha[t, ..., :1]
    return alpha


def _padded_normalised(scores, real) -> np.ndarray:
    labels = tuple(range(2, scores.ndim))
    probs = np.exp(scores - scores.max(axis=labels, keepdims=True))
    probs /= probs.sum(axis=labels, keepdims=True)
    return np.where(np.expand_dims(real, labels), probs, 0.0)


def padded_forward_backward(emissions, crf, lengths):
    """``kpex.crf``'s forward-backward as it ran over the whole padded ``(n, B, L)`` batch, through
    the textbook recursion: ``alpha`` and ``beta + emissions`` (each off by a constant per
    position), ``log Z``, the real-position mask and the marginals, zero on padding. The betas are
    the shifted alphas of each column reversed within its length."""
    n, batch = emissions.shape[:2]
    t = np.arange(n)[:, None]
    real = t < lengths
    rev = np.where(real, lengths - 1 - t, t), np.arange(batch)
    shift = np.empty((n, 2, batch))
    trans, first = np.stack((crf.trans, crf.trans.T))[:, None], np.stack((crf.start, crf.end))
    both = reduce_alphas(np.stack((emissions, emissions[rev]), 1), trans, first[:, None], shift)
    alpha, beta_e = both[:, 0], both[:, 1][rev]
    log_z = np.where(real, shift[:, 0], 0.0).sum(axis=0)
    log_z += np.logaddexp.reduce(alpha[lengths - 1, np.arange(batch)] + crf.end, axis=1)
    return alpha, beta_e, log_z, real, _padded_normalised(alpha + beta_e - emissions, real)


def padded_viterbi(emissions, crf, lengths):
    """``kpex.crf.viterbi`` as it ran over the whole padded batch: the max-plus recursion, every
    backpointer in one argmax, and a serial backtrack per column, lowest label on ties."""
    n, batch = emissions.shape[:2]
    delta = reduce_alphas(emissions, crf.trans, crf.start, reduce=np.maximum.reduce)
    steps = (delta[:-1, :, None, :] + crf.trans.T).argmax(axis=3).tolist()
    final = delta[lengths - 1, np.arange(batch)] + crf.end
    best = np.argmax(final, axis=1)
    path = np.zeros((n, batch), dtype=np.int64)
    for b, (length, label) in enumerate(zip(lengths.tolist(), best.tolist())):
        for t in range(length - 1, 0, -1):
            path[t, b] = label
            label = steps[t - 1][b][label]
        path[0, b] = label
    return path, final[np.arange(batch), best]


def padded_nll_and_grad(emissions, crf, gold, lengths):
    """``kpex.crf.nll_and_grad`` as it ran over the whole padded batch: losses ``log Z - S(gold)``
    and the expected-minus-observed gradients, summed over (t, column) with zeros on padding."""
    n, batch, num_labels = emissions.shape
    cols, last = np.arange(batch), lengths - 1
    alpha, beta_e, log_z, real, probs = padded_forward_backward(emissions, crf, lengths)
    emitted = np.where(real, np.take_along_axis(emissions, gold[:, :, None], axis=2)[:, :, 0], 0.0)
    moved = np.where(real[1:], crf.trans[gold[:-1], gold[1:]], 0.0)
    score = crf.start[gold[0]] + emitted.sum(axis=0) + crf.end[gold[last, cols]] + moved.sum(axis=0)
    d_start = probs[0].sum(axis=0) - np.bincount(gold[0], minlength=num_labels)
    d_end = probs[last, cols].sum(axis=0) - np.bincount(gold[last, cols], minlength=num_labels)
    t, b = np.nonzero(real)
    d_emissions = probs
    d_emissions[t, b, gold[t, b]] -= 1.0
    moves = real[1:]
    pair = alpha[:-1, :, :, None] + crf.trans + beta_e[1:, :, None, :]
    d_trans = _padded_normalised(pair, moves).sum(axis=(0, 1))
    np.add.at(d_trans, (gold[:-1][moves], gold[1:][moves]), -1.0)
    return log_z - score, d_emissions, (d_trans, d_start, d_end)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def bilstm_forward(params, ids):
    """One document's ``(n, L)`` emissions from the textbook BiLSTM, and what
    ``bilstm_backward`` needs: per direction, per step, its input, the previous state and cell,
    the gates (input, forget, cell, output) and the new cell and state. Direction 1 reads
    ``x[::-1]``; the projection sees the two directions' states side by side in reading order."""
    x = params.embed[np.asarray(ids)]
    h = params.lstm_Wh.shape[2]
    steps = []
    for d, xs in enumerate((x, x[::-1])):
        h_t, c_t, trace = np.zeros(h), np.zeros(h), []
        for x_t in xs:
            z = params.lstm_Wx[d] @ x_t + params.lstm_Wh[d] @ h_t + params.lstm_b[d]
            i, f = _sigmoid(z[:h]), _sigmoid(z[h : 2 * h])
            g, o = np.tanh(z[2 * h : 3 * h]), _sigmoid(z[3 * h :])
            c_new = f * c_t + i * g
            h_new = o * np.tanh(c_new)
            trace.append((x_t, h_t, c_t, i, f, g, o, c_new))
            h_t, c_t = h_new, c_new
        steps.append(trace)
    states = [np.array([o * np.tanh(c) for *_, o, c in trace]) for trace in steps]
    both = np.concatenate([states[0], states[1][::-1]], axis=1)
    return both @ params.proj_W.T + params.proj_b, (np.asarray(ids), steps, both)


def bilstm_backward(params, memo, d_emissions) -> dict:
    """Plain backpropagation through time of ``bilstm_forward``: the gradient of
    ``sum(d_emissions * emissions)`` w.r.t. every encoder tensor, by its canonical name. The
    padding row 0 of the embedding is frozen and gets none."""
    ids, steps, both = memo
    h = params.lstm_Wh.shape[2]
    d_both = d_emissions @ params.proj_W
    grads = {"embed": np.zeros_like(params.embed)}
    for d, name in enumerate(("lstm_fwd", "lstm_bwd")):
        d_states = d_both[:, :h] if d == 0 else d_both[::-1, h:]  # in the direction's step order
        Wx, Wh = params.lstm_Wx[d], params.lstm_Wh[d]
        dWx, dWh, db = np.zeros_like(Wx), np.zeros_like(Wh), np.zeros(4 * h)
        dx = np.zeros((len(ids), Wx.shape[1]))
        dh_next, dc_next = np.zeros(h), np.zeros(h)
        for s in reversed(range(len(ids))):
            x_t, h_prev, c_prev, i, f, g, o, c = steps[d][s]
            dh = d_states[s] + dh_next
            tc = np.tanh(c)
            dc = dc_next + dh * o * (1.0 - tc**2)
            dz = np.concatenate([
                dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g**2), dh * tc * o * (1.0 - o),
            ])
            dWx += np.outer(dz, x_t)
            dWh += np.outer(dz, h_prev)
            db += dz
            dx[s] = Wx.T @ dz
            dh_next, dc_next = Wh.T @ dz, dc * f
        grads.update({f"{name}.Wx": dWx, f"{name}.Wh": dWh, f"{name}.b": db})
        np.add.at(grads["embed"], ids, dx if d == 0 else dx[::-1])
    grads["embed"][0] = 0.0
    grads["proj.W"] = d_emissions.T @ both
    grads["proj.b"] = d_emissions.sum(axis=0)
    return grads


def central_difference_grad(f, arr, step: float = 1e-3) -> np.ndarray:
    """Elementwise central finite differences of scalar f() w.r.t. arr (mutated in place)."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        up = f()
        arr[idx] = orig - step
        down = f()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def per_tensor_adam_step(params, grads, moments, step, lr_lower, lr_upper) -> None:
    """Bias-corrected Adam, one named tensor at a time and in place: ``embed`` at ``lr_lower``,
    the rest at ``lr_upper``; ``moments`` maps each name to its ``(m, v)``, zero at first."""
    for name, p in params.items():
        g = grads[name]
        m, v = moments.setdefault(name, (np.zeros_like(p), np.zeros_like(p)))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        denom = np.sqrt(v / (1.0 - 0.999**step)) + 1e-8
        p -= m / (1.0 - 0.9**step) * (lr_lower if name == "embed" else lr_upper) / denom


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = np.max(np.abs(analytic - numeric))
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
    return float(diff / scale)


def leftmost_longest_spans(tokens, phrases):
    """Direct greedy matcher: at each position take the longest phrase match."""
    folded = [t.casefold() for t in tokens]
    fphrases = {tuple(t.casefold() for t in p) for p in phrases if p}
    out = []
    i = 0
    while i < len(folded):
        best = None
        for p in fphrases:
            if len(p) <= len(folded) - i and all(folded[i + j] == p[j] for j in range(len(p))):
                if best is None or len(p) > len(best):
                    best = p
        if best is not None:
            out.append(((i, i + len(best)), best))
            i += len(best)
        else:
            i += 1
    return out


def f1_reference(pred, gold):
    """Direct precision/recall/F1 from raw sets."""
    pred = {tuple(t.casefold() for t in p) for p in pred}
    gold = {tuple(t.casefold() for t in p) for p in gold}
    match = len(pred & gold)
    precision = match / len(pred) if pred else 0.0
    recall = match / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def scalar_gen_synthetic(seed, n_docs, vocab_size=120, keyword_fraction=0.25):
    """``kpex.gen_synthetic`` and its rule as first written: one scalar ``Generator.integers``
    call per draw (and one array draw per template tail), and each document's labels derived by
    matching its planted templates with ``keyphrases_to_bio``. Arguments are not validated."""
    from kpex.corpus import Dataset, Document, LabeledDocument, keyphrases_to_bio

    n_keywords = max(1, round(keyword_fraction * vocab_size))
    n_continuations = max(1, min(n_keywords, (vocab_size - n_keywords) // 3))
    n_fillers = vocab_size - n_keywords - n_continuations
    keywords = tuple(f"kw{i:03d}" for i in range(n_keywords))
    continuations = tuple(f"mid{i:03d}" for i in range(n_continuations))
    fillers = tuple(f"w{i:03d}" for i in range(n_fillers))

    rng = np.random.default_rng([seed, 0])
    templates = {}
    for kw in keywords:
        length = int(rng.integers(1, 4))
        tail = tuple(continuations[int(j)] for j in rng.integers(0, n_continuations, length - 1))
        templates[kw] = (kw, *tail)

    rng = np.random.default_rng([seed, 1])
    n_kw, n_fill = len(keywords), len(fillers)
    documents = []
    for d in range(n_docs):
        target = int(rng.integers(10, 41))
        tokens, planted = [], set()
        while len(tokens) < target:
            pick = int(rng.integers(0, n_kw + n_fill))
            if pick < n_kw:
                template = templates[keywords[pick]]
                if len(tokens) + len(template) <= target:
                    tokens.extend(template)
                    planted.add(template)
                    continue
                pick = n_kw + int(rng.integers(0, n_fill))
            tokens.append(fillers[pick - n_kw])
        labels = keyphrases_to_bio(tokens, planted)
        documents.append(LabeledDocument(
            doc=Document(id=f"syn{d:05d}", tokens=tuple(tokens)),
            labels=tuple(labels),
        ))
    return Dataset(name=f"synthetic-{seed}", documents=documents)
