"""Independent reference implementations used by unit and acceptance tests.
Kept deliberately naive (explicit loops, library one-liners) so they share
no code path with the package."""

import math

import numpy as np
from scipy import stats


def cmd_bruteforce(zs, zt, k):
    """Per-column moment formula with explicit loops."""
    n_cols = zs.shape[1]
    lo = [min(min(zs[:, c]), min(zt[:, c])) for c in range(n_cols)]
    hi = [max(max(zs[:, c]), max(zt[:, c])) for c in range(n_cols)]
    width = [max(hi[c] - lo[c], 1e-6) for c in range(n_cols)]
    mean_s = [float(np.mean(zs[:, c])) for c in range(n_cols)]
    mean_t = [float(np.mean(zt[:, c])) for c in range(n_cols)]
    total = math.sqrt(sum(((mean_s[c] - mean_t[c]) / width[c]) ** 2
                          for c in range(n_cols)))
    for j in range(2, k + 1):
        sq = 0.0
        for c in range(n_cols):
            ms = sum((v - mean_s[c]) ** j for v in zs[:, c]) / len(zs)
            mt = sum((v - mean_t[c]) ** j for v in zt[:, c]) / len(zt)
            sq += ((ms - mt) / width[c] ** j) ** 2
        total += math.sqrt(sq)
    return total


def grid_mle_lambda(y, step=0.01, lo=-2.0, hi=2.0):
    """Grid-search MLE for the power-transform parameter."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    log_sum = np.log(y).sum()
    best_lam, best_llf = None, -np.inf
    for lam in np.arange(lo, hi + step / 2, step):
        if abs(lam) < 1e-12:
            t = np.log(y)
        else:
            t = (y ** lam - 1.0) / lam
        var = t.var()
        if var <= 0:
            continue
        llf = (lam - 1.0) * log_sum - n / 2.0 * math.log(var)
        if llf > best_llf:
            best_lam, best_llf = lam, llf
    return best_lam


def yeojohnson_reference(y):
    """Library MLE Yeo-Johnson transform (test-only reference)."""
    out, _ = stats.yeojohnson(np.asarray(y, dtype=np.float64))
    return out


def quantile_reference(y):
    """Rank-based mapping to standard normal (test-only reference)."""
    y = np.asarray(y, dtype=np.float64)
    return stats.norm.ppf((stats.rankdata(y) - 0.5) / len(y))


def layernorm_textbook(x, g, b, eps=1e-5):
    """Layer norm over the last axis through numpy's `mean`/`var`; returns
    (y, xhat, inv). The package's one-pass form must match it bit for bit."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return g * xhat + b, xhat, inv


def layernorm_bwd_textbook(dy, xhat, inv, g):
    """Backward of `layernorm_textbook` with `.mean`; returns (dx, dg, db)."""
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    axes = tuple(range(dy.ndim - 1))
    return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)
