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
