"""Shared test utilities."""

import dataclasses

import numpy as np

from mflq import AffineFeedback, MomentState, lq_model
from mflq.model import _flow, _pair_of, _row_factors, _step_map, _terminal_rows, _tr, sym
from mflq.moments import _moment_table
from mflq.riccati import _pack, _solved_aux
from mflq.schedules import Schedule


def variance_stderr(samples) -> float:
    """Standard error of the unbiased sample variance, without assuming a
    Gaussian population: sqrt((m4 - s^4 (n-3)/(n-1)) / n) with m4 the 4th
    central moment. Equals s^2 sqrt(2/(n-1)) in the Gaussian case."""
    x = np.asarray(samples, float).ravel()
    n = x.size
    c = x - x.mean()
    s2 = (c @ c) / (n - 1)
    m4 = np.mean(c ** 4)
    return float(np.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n))


def aux_at(model, t, state):
    """U, V, S, Z and Y (a vector) at (t, state), from _solved_aux on the
    one-row model table at t: the control block (U, V) and the off-diagonal
    block (S~, Z~) of its N, S~ = [S; 0] and Z~ = [Z; Y'/2]."""
    d = model.dims.d
    N = _solved_aux(model.table([t]), 0, pair_of(state))[0]
    (U, V), (S, Z) = N[:, d + 1:, d + 1:], N[:, :d + 1, d + 1:]
    assert not S[d].any()
    return U, V, S[:d], Z[:d], 2.0 * Z[d]


def reference_aux(c, j, P):
    """(S~, Z~) and W = (U^{-1}S~', V^{-1}Z~') spelled term by term over the
    seven coefficient pairs of an LqModel.table c, with no breakdown check:
    the pair expression that the Schur complement of riccati._solved_aux
    replaced, kept as a reference for it."""
    L = P[:1]
    Cp, Dp, Fp = c["Cp"][:, j], c["Dp"][:, j], c["Fp"][:, j]
    UV = sym(_tr(Fp) @ L @ Fp + c["R2p"][:, j])
    SZ = _tr(Dp) @ L @ Fp + P @ Cp + c["M2p"][:, j]
    w, q = np.linalg.eigh(UV)
    return SZ, q @ ((_tr(q) @ _tr(SZ)) / w[..., None])


def reference_rhs(c, j, y):
    """The Riccati right-hand side at row j of c as the pair expression
    -sym(Q~ + D~'Lam~D~ + P~B~ + B~'P~ - (S~, Z~) W) (reference_aux)."""
    n = c["Bp"].shape[-1]
    P = y.reshape(2, n, n)
    L, Bp, Dp = P[0], c["Bp"][:, j], c["Dp"][:, j]
    SZ, W = reference_aux(c, j, P)
    return -sym(c["Q2p"][:, j] + _tr(Dp) @ L @ Dp + P @ Bp + _tr(Bp) @ P - SZ @ W).ravel()


def pair_of(state):
    """The augmented pair (Lam~, Gam~) of a RiccatiState, shape (2, d+1, d+1)."""
    d = state.gam.size
    return _pack(state).reshape(2, d + 1, d + 1)


def flow_without_mean_noise(A, G, W):
    """A mutant of model._flow whose generator drops G1 (x) G1, the noise of
    the mean feeding the covariance."""
    return _flow(A, np.stack((G[0], np.zeros_like(G[1]))), W)


def state_rows(model, t, X, mhat, K):
    """Drift, diffusion and running cost of the columns of X (d, n) under
    the law with gain pair row K (2, m, d+1) against the state mean mhat at
    time t: the rows of the step map _step_map at dt = 1 on the one-row
    model table at t, applied to X~ = [X; 1]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[0]
    c = model.table([t])
    Xt = np.vstack([X, np.ones(X.shape[1])])
    Y = _step_map(c, _row_factors(c), 0, K, np.atleast_1d(np.asarray(mhat, dtype=float)),
                  1.0) @ Xt
    return Y[:d], Y[d:2 * d], np.einsum("ij,ij->j", Y[2 * d:], Xt)


def rhs_gap_to_particles(model, fb, t, atoms, weights):
    """Largest gap, relative to the largest expected entry or 1, between
    the rate L y, L the generator, at the moment pair S~ of the discrete
    measure (atoms (d, n), weights) and the weighted sums of the particle
    state equation state_rows, which reads the raw coefficients:
    m' = sum w b, Cov' = sum w [(x - m) b' + b (x - m)' + s s'],
    (m~m~')' = m~'m~' + m~m~'' with m~' = [m'; 0], and f = sum w f_i; S~'s
    padding and last entry must have rate 0."""
    mean = atoms @ weights
    dev = atoms - mean[:, None]
    b, s, f = state_rows(model, t, atoms, mean, fb.table([t])[:, 0])
    wdev = dev * weights
    m, dm = np.append(mean, 1.0), np.append(b @ weights, 0.0)
    dcov = wdev @ b.T + b @ wdev.T + (s * weights) @ s.T
    expect = np.append([np.pad(dcov, (0, 1)), np.outer(dm, m) + np.outer(m, dm)], f @ weights)
    y = np.append(_pair_of(MomentState(mean, wdev @ dev.T)), 0.0)
    got = _moment_table(model, fb, [t])[0] @ y
    return np.abs(got - expect).max() / max(1.0, np.abs(expect).max())


def gain_row(k1, k2, k0):
    """The gain pair row ([K1, 0], [K2, k]) of the constant law (k1, k2, k0)."""
    return AffineFeedback.constant(k1, k2, k0).table([0.0])[:, 0]


def row_at(model, t, x, a, mx, ma):
    """Drift, diffusion and running cost of one particle (x, a) against the
    means (mx, ma) at time t, from state_rows under the law K1 = (a - ma)
    (x - mx)' / |x - mx|^2, K2 = 0, k = ma, which gives the particle the
    control a and the law the mean control ma (so x = mx needs a = ma), and
    the terminal cost of x against mx from _terminal_rows."""
    x, a, mx, ma = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, a, mx, ma))
    dx = x - mx
    assert dx.any() or np.array_equal(a, ma), "no affine law gives x = mx the control a != ma"
    K1 = np.outer(a - ma, dx) / (dx @ dx or 1.0)
    b, s, f = state_rows(model, t, x[:, None], mx, gain_row(K1, np.zeros_like(K1), ma))
    return b[:, 0], s[:, 0], float(f[0]), float(_terminal_rows(model.cost, x[:, None], mx)[0])


def random_standard_model(rng, d=2, m=2, barred=True, cross=0.0):
    """Random smooth LQ model satisfying the positivity condition: Q2, P2
    (and their barred sums) PSD, R2 (and R2+R2bar) >= 0.5 I, and M2 = M2bar
    = 0 unless ``cross``. A ``cross`` in (0, 1) draws M2 = cross Q2^(1/2) G
    R2^(1/2), G of spectral norm 1, and M2 + M2bar likewise from the barred
    sums, after every other coefficient, so the rest of the model is the
    same: [[Q2, M2], [M2', R2]] and its barred sum stay PSD (Q2 - M2 R2^-1
    M2' >= (1 - cross^2) Q2), so Lam and Gam stay PSD and U, V positive
    definite (Yong, SICON 2013)."""

    def psd(n, scale=1.0):
        a = rng.standard_normal((n, n)) * scale
        return a @ a.T / n

    def mat(rows, cols, scale=0.6):
        return rng.standard_normal((rows, cols)) * scale

    def root(a):
        w, q = np.linalg.eigh(a)
        return (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T

    def coupling(Q, R):
        g = mat(d, m, 1.0)
        return cross * root(Q) @ (g / np.linalg.norm(g, 2)) @ root(R)

    Q2 = psd(d)
    R2 = psd(m) + 0.5 * np.eye(m)
    P2 = psd(d)
    kw = dict(
        b0=rng.standard_normal(d) * 0.3, B=mat(d, d), C=mat(d, m),
        sigma0=rng.standard_normal(d) * 0.3, D=mat(d, d, 0.4), F=mat(d, m, 0.4),
        Q2=Q2, R2=R2, P2=P2,
        q1=rng.standard_normal(d) * 0.3, r1=rng.standard_normal(m) * 0.3,
        p1=rng.standard_normal(d) * 0.3,
    )
    if barred:
        kw.update(
            Bbar=mat(d, d, 0.3), Cbar=mat(d, m, 0.3), Dbar=mat(d, d, 0.2),
            Fbar=mat(d, m, 0.2),
            Q2bar=psd(d, 0.5) - 0.5 * Q2,   # keeps Q2 + Q2bar >= 0
            R2bar=psd(m, 0.5),
            P2bar=psd(d, 0.5) - 0.5 * P2,
            q1bar=rng.standard_normal(d) * 0.3,
            r1bar=rng.standard_normal(m) * 0.3,
            p1bar=rng.standard_normal(d) * 0.3,
        )
    if cross:
        M2 = coupling(Q2, R2)
        M2bar = coupling(Q2 + kw.get("Q2bar", 0.0), R2 + kw.get("R2bar", 0.0)) - M2
        kw.update(M2=M2, M2bar=M2bar)
    return lq_model(d=d, m=m, horizon=1.0, **kw)


def tabulated_model(rng=None, d=2, m=2, cross=0.0):
    """Random model (by default the one of seed 8 at d=2, m=2) whose drift and
    cost schedules are tabulated."""
    rng = np.random.default_rng(8) if rng is None else rng
    base = random_standard_model(rng, d=d, m=m, cross=cross)
    knots = np.array([0.0, 0.5, 1.0])
    B = Schedule.tabulated(knots, [base.dynamics.B(0.0) * f for f in (1.0, 0.5, 1.5)])
    Q2 = Schedule.tabulated(knots, [base.cost.Q2(0.0) * f for f in (1.0, 2.0, 1.0)])
    return dataclasses.replace(
        base, dynamics=dataclasses.replace(base.dynamics, B=B),
        cost=dataclasses.replace(base.cost, Q2=Q2))
