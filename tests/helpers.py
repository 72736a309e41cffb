"""Shared test utilities."""

import dataclasses

import numpy as np

from mflq import lq_model
from mflq.model import _flow, _row_factors, _row_terms, _terminal_rows, _tr, sym
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


def row_at(model, t, x, a, mx, ma):
    """Drift, diffusion and running cost of one particle (x, a) against the
    means (mx, ma) at time t, from _row_terms on the one-row model table at
    t, and the terminal cost of x against mx from _terminal_rows."""
    x, a, mx, ma = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, a, mx, ma))
    c = model.table([t])
    b, s, f = _row_terms(c, _row_factors(c), 0, np.concatenate([x, a])[:, None],
                         np.concatenate([mx, ma]))
    return b[:, 0], s[:, 0], float(f[0]), float(_terminal_rows(model.cost, x[:, None], mx)[0])


def random_standard_model(rng, d=2, m=2, barred=True, cross=0.0):
    """Random smooth LQ model satisfying the positivity condition (M2 = 0):
    Q2, P2 (and their barred sums) PSD, R2 (and R2+R2bar) >= 0.5 I. A
    nonzero ``cross`` draws M2 and M2bar at that scale instead, after every
    other coefficient, so the rest of the model is the same."""

    def psd(n, scale=1.0):
        a = rng.standard_normal((n, n)) * scale
        return a @ a.T / n

    def mat(rows, cols, scale=0.6):
        return rng.standard_normal((rows, cols)) * scale

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
        kw.update(M2=mat(d, m, cross), M2bar=mat(d, m, cross))
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
