"""Independent brute-force oracles shared by the unit and acceptance tests.

Each oracle recomputes its quantity by the most literal method available
(dense grids, exhaustive enumeration, finite differences) and never calls
the code paths it is checking.
"""

import numpy as np


def _grid_scan(v, c, grid):
    best_val = np.inf
    best_lam = 0.0
    chunk = 100_000
    for s in range(0, grid.size, chunk):
        lam = grid[s:s + chunk]
        vals = np.abs(lam[:, None] * v[None, :] - c[None, :]).max(axis=1)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_lam = float(lam[k])
    return best_lam, best_val


def grid_min_chebyshev(v, c, n_grid=10**6):
    """Dense lambda-grid minimizer of max_i |lambda v_i - c_i|.

    Two-stage grid with n_grid points in total: a coarse sweep of [0, hi]
    followed by a fine sweep one coarse step either side of the coarse
    argmin. The objective is convex in lambda, so the sampled minimum
    brackets the true one within a single coarse step and the refinement
    is sound.
    """
    v = np.asarray(v, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    hi = c.max() / v[v > 0].min() + 1.0
    n_coarse = n_grid // 10
    coarse_lam, coarse_val = _grid_scan(v, c, np.linspace(0.0, hi, n_coarse))
    step = hi / (n_coarse - 1)
    fine = np.linspace(max(0.0, coarse_lam - step), coarse_lam + step, n_grid - n_coarse)
    fine_lam, fine_val = _grid_scan(v, c, fine)
    if fine_val < coarse_val:
        return fine_lam, fine_val
    return coarse_lam, coarse_val


def linf_prox_objective_grid(z, rho, n_grid=200_001):
    """Best objective of min_u ||u||_inf + rho/2 ||u - z||^2 by scanning the
    clip threshold tau (the optimum clips z into [-tau, tau])."""
    z = np.asarray(z, dtype=np.float64)
    az = np.abs(z)
    taus = np.linspace(0.0, az.max() if az.size else 0.0, n_grid)
    over = np.maximum(az[None, :] - taus[:, None], 0.0)
    vals = taus + 0.5 * rho * (over * over).sum(axis=1)
    return float(vals.min())


def central_diff_gradient(f, w, h=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        g[idx] = (f(wp) - f(wm)) / (2.0 * h)
        it.iternext()
    return g


def w_loss_grad_loop(w, points, i_idx, j_idx, c, u, y, lam, alpha):
    """W-subproblem loss 0.5 sum_k r_k^2, r_k = u_k - lam v_k + c_k + y_k,
    and its gradient in W, one secant and one bit at a time with scalar
    sigmoids: v_k = sum_m (s_im - s_jm)^2, s_qm = 1 / (1 + exp(-alpha w_m.x_q)).
    """
    import math

    w = np.asarray(w, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    loss = 0.0
    grad = np.zeros_like(w)
    for k in range(len(i_idx)):
        xi, xj = points[i_idx[k]], points[j_idx[k]]
        si = [1.0 / (1.0 + math.exp(-alpha * float(wm @ xi))) for wm in w]
        sj = [1.0 / (1.0 + math.exp(-alpha * float(wm @ xj))) for wm in w]
        v = sum((a - b) ** 2 for a, b in zip(si, sj))
        r = u[k] - lam * v + c[k] + y[k]
        loss += 0.5 * r * r
        for m in range(w.shape[0]):
            # d r / d w_m = -lam * 2 (s_im - s_jm) (s_im' x_i - s_jm' x_j)
            dsi = alpha * si[m] * (1.0 - si[m]) * xi
            dsj = alpha * sj[m] * (1.0 - sj[m]) * xj
            grad[m] += r * (-lam) * 2.0 * (si[m] - sj[m]) * (dsi - dsj)
    return loss, grad


def hamming_dense(bits):
    """Dense Q x Q Hamming matrix from an unpacked 0/1 code matrix."""
    b = np.asarray(bits, dtype=np.int64)
    return np.abs(b[:, None, :] - b[None, :, :]).sum(axis=2)


def brute_max_distortion(points, bits, n_grid=10**6):
    """(lambda, delta) by dense pair enumeration plus the lambda grid."""
    pts = np.asarray(points, dtype=np.float64)
    q = pts.shape[0]
    dh = hamming_dense(bits)
    v, c = [], []
    for i in range(1, q):
        for j in range(i):
            v.append(dh[i, j])
            c.append(float(np.linalg.norm(pts[i] - pts[j])))
    v = np.array(v, dtype=np.float64)
    c = np.array(c, dtype=np.float64)
    return grid_min_chebyshev(v, c, n_grid)


def _neighbors_sorted(dist, exclude, k):
    order = sorted(range(len(dist)), key=lambda t: (dist[t], t))
    order = [t for t in order if t != exclude]
    return order[:k]


def brute_map(points, bits, queries, k):
    """Literal per-query AP = |ambient kNN  ∩  Hamming kNN| / k."""
    pts = np.asarray(points, dtype=np.float64)
    dh = hamming_dense(bits)
    out = []
    for qi in queries:
        d_amb = [float(np.linalg.norm(pts[t] - pts[qi])) for t in range(len(pts))]
        ambient = set(_neighbors_sorted(d_amb, qi, k))
        hamming = set(_neighbors_sorted(list(dh[qi]), qi, k))
        out.append(len(ambient & hamming) / k)
    return out


def brute_tau(points, bits, queries, k):
    """Kendall tau over each query's ambient kNN members, counting pairs
    after deterministic (distance, index) tie resolution."""
    pts = np.asarray(points, dtype=np.float64)
    dh = hamming_dense(bits)
    out = []
    for qi in queries:
        d_amb = [float(np.linalg.norm(pts[t] - pts[qi])) for t in range(len(pts))]
        members = _neighbors_sorted(d_amb, qi, k)
        ham_keys = {t: (int(dh[qi, t]), t) for t in members}
        concordant = 0
        discordant = 0
        for a in range(k):
            for b in range(a + 1, k):
                # ambient order says members[a] before members[b]
                if ham_keys[members[a]] < ham_keys[members[b]]:
                    concordant += 1
                else:
                    discordant += 1
        out.append((concordant - discordant) / (k * (k - 1) / 2))
    return out


def sample_pair_indices_unique(total, k, rng):
    """The rejection sampler of k distinct indices in [0, total), deduplicated
    with np.unique after every draw; same rng calls as the library's."""
    if k >= total:
        return np.arange(total, dtype=np.int64)
    pool = np.empty(0, dtype=np.int64)
    while pool.size < k:
        need = k - pool.size
        draw = rng.integers(0, total, size=int(need * 1.3) + 16, dtype=np.int64)
        pool = np.unique(np.concatenate([pool, draw]))
    if pool.size > k:
        pool = np.sort(pool[rng.permutation(pool.size)[:k]])
    return pool


def literal_row_scan(points, bits, lam):
    """(delta, (i, j)) of |lam d_H - c| over every pair, one row of the
    stream at a time, with c the literal l2 distance sqrt(sum((x_i - x_j)^2))
    and the smallest stream position winning ties."""
    pts = np.asarray(points, dtype=np.float64)
    b = np.asarray(bits, dtype=np.int64)
    delta, worst = -1.0, None
    for i in range(1, pts.shape[0]):
        d = pts[i] - pts[:i]
        c = np.sqrt(np.einsum("ij,ij->i", d, d))
        r = np.abs(lam * np.abs(b[:i] - b[i]).sum(axis=1) - c)
        k = int(np.argmax(r))
        if r[k] > delta:
            delta, worst = float(r[k]), (i, k)
    return delta, worst


def _literal_pairs(points, bits):
    """(Hamming distance, literal l2 distance) of every pair in stream order,
    the distances by the row-wise sqrt(sum((x_i - x_j)^2)) of literal_row_scan."""
    pts = np.asarray(points, dtype=np.float64)
    b = np.asarray(bits, dtype=np.int64)
    v, c = [], []
    for i in range(1, pts.shape[0]):
        d = pts[i] - pts[:i]
        c.append(np.sqrt(np.einsum("ij,ij->i", d, d)))
        v.append(np.abs(b[:i] - b[i]).sum(axis=1))
    return np.concatenate(v), np.concatenate(c)


def literal_refit_lambda(points, bits):
    """lambda* of fit_lambda_chebyshev over every pair's integer Hamming
    distance and literal l2 distance."""
    from isohash.metrics import fit_lambda_chebyshev

    v, c = _literal_pairs(points, bits)
    return fit_lambda_chebyshev(v.astype(np.float64), c)[0]


def literal_level_extremes(points, bits):
    """(lo, hi): the smallest and largest literal distance among the pairs at
    each Hamming level 0..M, inf and -inf at levels no pair sits at."""
    v, c = _literal_pairs(points, bits)
    m = np.asarray(bits).shape[1]
    lo, hi = np.full(m + 1, np.inf), np.full(m + 1, -np.inf)
    for level in range(m + 1):
        at = c[v == level]
        if at.size:
            lo[level], hi[level] = at.min(), at.max()
    return lo, hi
