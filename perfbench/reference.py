"""Reference computations the benchmark checks the program's outputs against.

Written from the rules stated in the project README, with numpy only: this
module imports nothing from ``crossimpact``, so a fault in the program
cannot hide in its own oracle.  Every function works on whole arrays.
"""

from __future__ import annotations

import numpy as np

EPS_DELTA = 1e-9

# Branch codes of the strength update, as in the README table.
NONE, ONE_ZERO, EQUAL, RATIO = 0, 1, 2, 3


def update_strengths(deltas, prior, eps_delta=EPS_DELTA, clamp=True):
    """Apply the strength-update rule to every off-diagonal cell.

    Cell (i, j) uses ``di = deltas[i]`` (the affected subsystem),
    ``dj = deltas[j]`` (the influencing one) and ``r = prior[i, j]``:

    * both deltas zero, or equal within ``eps_delta``: keep ``r``;
    * exactly one delta zero: 0;
    * otherwise ``x = di / (dj * r)``; the result is ``|x|`` if ``x > 0``
      and ``1 / |x|`` otherwise, clamped to [0, 1] when ``clamp``.  A
      vanished denominator (``r = 0``) or ``x = 0`` absorbs to 0.

    Leading axes are batch axes: ``deltas`` is (..., n) and ``prior``
    (..., n, n).  Returns ``(entries, codes, degenerate)``: the new
    matrices with unit diagonal, the branch code of each cell (``NONE`` on
    the diagonal) and the mask of absorbed ratio cells.
    """
    d = np.asarray(deltas, dtype=float)
    r = np.asarray(prior, dtype=float)
    n = d.shape[-1]
    di = d[..., :, None]
    dj = d[..., None, :]
    i_zero = np.abs(di) <= eps_delta
    j_zero = np.abs(dj) <= eps_delta
    one_zero = i_zero != j_zero
    equal = (i_zero & j_zero) | (~one_zero & ~i_zero & (np.abs(di - dj) <= eps_delta))
    ratio = ~one_zero & ~equal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = dj * r
        x = di / denom
        value = np.where(x > 0.0, np.abs(x), 1.0 / np.abs(x))
    degenerate = ratio & ((denom == 0.0) | (x == 0.0))
    if clamp:
        value = np.clip(value, 0.0, 1.0)
    out = np.where(equal, r, 0.0)
    out = np.where(ratio & ~degenerate, value, out)
    codes = np.select([one_zero, equal, ratio], [ONE_ZERO, EQUAL, RATIO])
    off = ~np.eye(n, dtype=bool)
    return np.where(off, out, 1.0), np.where(off, codes, NONE), degenerate & off


def branch_counts(codes, degenerate):
    """(one_zero, equal, ratio, degenerate) cell counts of each update,
    along a new last axis."""
    cells = (-2, -1)
    return np.stack(
        [np.sum(codes == k, axis=cells) for k in (ONE_ZERO, EQUAL, RATIO)]
        + [np.sum(degenerate, axis=cells)],
        axis=-1,
    )


def aggregate(strengths, utility, emphasis=None, normalize=True):
    """Next performance: row sums of strength * utility, plus the policy
    emphasis, clipped to [0, 1] when ``normalize``."""
    w = (np.asarray(strengths, dtype=float) * np.asarray(utility, dtype=float)).sum(axis=-1)
    if emphasis is not None:
        w = w + np.asarray(emphasis, dtype=float)
    return np.clip(w, 0.0, 1.0) if normalize else w


def min_norm_utility(strengths, target):
    """Minimum-norm utility rows: ``U[i, j] = R[i, j] * W[i] / sum_k R[i, k]**2``.
    An all-zero strength row gives a zero utility row."""
    r = np.asarray(strengths, dtype=float)
    ss = (r * r).sum(axis=-1)
    scale = np.divide(np.asarray(target, dtype=float), ss, out=np.zeros_like(ss), where=ss != 0.0)
    return r * scale[..., None]


def simulate(w0, w1, r1, utility, horizon, policy=None, eps_delta=EPS_DELTA):
    """Reference trajectory with clamping and normalisation on (the
    defaults).  Step s (1-based) adds ``policy[s]`` and emits timestamp
    s + 1.  Leading axes of the seeds are batch axes.  Returns ``(W, R,
    counts)`` with shapes (..., h, n), (..., h, n, n) and (..., h, 4)."""
    policy = policy or {}
    w_prev, w_curr, r = (np.asarray(a, dtype=float) for a in (w0, w1, r1))
    ws, rs, counts = [], [], []
    for s in range(1, horizon + 1):
        r, codes, degenerate = update_strengths(w_curr - w_prev, r, eps_delta)
        w_next = aggregate(r, utility, policy.get(s))
        ws.append(w_next)
        rs.append(r)
        counts.append(branch_counts(codes, degenerate))
        w_prev, w_curr = w_curr, w_next
    return np.moveaxis(np.array(ws), 0, -2), np.moveaxis(np.array(rs), 0, -3), np.moveaxis(
        np.array(counts), 0, -2
    )


def observations(strengths, design):
    """One PCA observation row per step of a (h, n, n) strength series."""
    r = np.asarray(strengths, dtype=float)
    if design == "column-sums":
        return r.sum(axis=1)
    if design == "flattened":
        return r.reshape(r.shape[0], -1)
    raise ValueError(f"unknown design {design!r}")


def pca(x):
    """Eigenvalues (descending) and eigenvectors of the sample covariance
    of the rows of ``x``, by ``np.linalg.eigh``."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    values, vectors = np.linalg.eigh(cov)
    return values[::-1], vectors[:, ::-1]


def influence(strengths, design):
    """PCA influence of each subsystem over a strength series.

    Returns ``(magnitudes, ratios, gap)``: the first component's loading
    magnitude per subsystem (aggregated over the rows of each source
    column in the flattened design), the explained-variance ratios, and
    the gap between the two largest eigenvalues as a share of the
    largest, which says how well the first component is determined.
    """
    r = np.asarray(strengths, dtype=float)
    n = r.shape[1]
    values, vectors = pca(observations(r, design))
    clipped = np.clip(values, 0.0, None)
    ratios = clipped / clipped.sum()
    pc1 = vectors[:, 0]
    if design == "flattened":
        grid = pc1.reshape(n, n)
        magnitudes = np.sqrt((grid * grid).sum(axis=0))
    else:
        magnitudes = np.abs(pc1)
    gap = (values[0] - values[1]) / values[0] if values[0] > 0.0 else 0.0
    return magnitudes, ratios, gap


def quality(performance, ihdi):
    """Quality coefficient per row: ``mean(S) / IHDI``."""
    return np.asarray(performance, dtype=float).mean(axis=1) / np.asarray(ihdi, dtype=float)


def trend_fit(t, qc, slope_eps=1e-3, floor=0.9):
    """Least-squares slope of ``qc`` over ``t``, its class and whether the
    window is satisfiable (every point at or above ``floor`` and the
    trend not decreasing)."""
    a = np.column_stack([np.asarray(t, dtype=float), np.ones(len(t))])
    slope = float(np.linalg.lstsq(a, np.asarray(qc, dtype=float), rcond=None)[0][0])
    if slope > slope_eps:
        cls = "increasing"
    elif slope < -slope_eps:
        cls = "decreasing"
    else:
        cls = "stationary"
    return slope, cls, cls != "decreasing" and bool(np.all(np.asarray(qc) >= floor))
