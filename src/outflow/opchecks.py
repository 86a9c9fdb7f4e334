"""Property checks for the spherical-operator toolkit.

Covers the unit-vector derivative relations, spherical-vs-Cartesian operator
agreement, the commutator expansions and bounds, the radial-radial
cancellation in r_hat . lap V - d_r div V, and the Hardy inequality with
constant 2n.  The operators under test take exact chart derivatives of
Taylor jets (`sphops.chart_jet`), so every equality between two of their
compositions holds to round-off; the oracles they are compared with
difference along Cartesian axes.  The radial-radial routes take the chart
jet that the suite builds once per chart.
The suite (`run_verify_ops`) varies only its seed: the corpus has
CORPUS_POINTS points per chart and each commutator check takes the first
COMMUTATOR_POINTS of them.
The Hardy corpus carries closed-form gradients (`HARDY_GRADIENTS`);
`hardy_check` falls back to Cartesian differences for a field given without
one, and tells a vector field from a scalar one by the shape of its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import cutoffs
from .jets import partial
from .sphops import (
    CHARTS,
    ChartJet,
    cart_div,
    cart_grad,
    cart_grad_div,
    cart_grad_sq,
    cart_lap,
    chart_jet,
    from_spherical,
    radius,
    sph_div,
    sph_grad,
    sph_lap,
    to_spherical,
    unit_vectors,
)

__all__ = [
    "OpSample",
    "default_corpus",
    "CheckRow",
    "commutator_check",
    "rr_cancellation",
    "HARDY_FIELDS",
    "HARDY_GRADIENTS",
    "hardy_check",
    "TailNotConverged",
    "run_verify_ops",
]


class TailNotConverged(RuntimeError):
    """Quadrature tail beyond the truncation radius is not negligible."""


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    tol: float
    passed: bool
    note: str


def _row(name, value, tol, note=""):
    return CheckRow(name, float(value), float(tol), bool(value <= tol), note)


# ---------------------------------------------------------------------------
# manufactured corpus


@dataclass(frozen=True)
class OpSample:
    """Manufactured smooth fields plus chart-valid evaluation points.

    Fields are entire away from the origin, so the Cartesian oracles'
    stencil samples slightly outside the exterior domain are harmless.
    Points keep a margin from the chart axes and from r = 1.
    """

    scalar_fields: dict
    vector_fields: dict
    points: dict  # chart -> (n, 3) array


# the points per chart of the suite's corpus, and the first of them that
# each commutator check takes
CORPUS_POINTS = 100
COMMUTATOR_POINTS = 20
_CORPUS_RADII = (1.15, 4.0)
_CORPUS_MARGIN = 0.15  # polar-angle margin inside each chart's cut-off support


def _corpus_points(rng, chart, n):
    r = rng.uniform(_CORPUS_RADII[0], _CORPUS_RADII[1], n)
    theta = rng.uniform(np.pi / 9 + _CORPUS_MARGIN, 8 * np.pi / 9 - _CORPUS_MARGIN, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    return from_spherical(r, theta, phi, chart)


def default_corpus(seed: int, n_points: int = CORPUS_POINTS) -> OpSample:
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, 8)
    x0 = np.array([1.2, 0.7, -0.5])

    scalars = {
        "radial_exp": lambda x: np.exp(1.0 - radius(x)),
        "poly": lambda x: x[..., 0] ** 2 * x[..., 1] - x[..., 2] ** 3,
        "dipole": lambda x: x[..., 2] / radius(x) ** 3,
        "gauss": lambda x: np.exp(-0.5 * np.sum((x - x0) ** 2, axis=-1)),
        "mixed": lambda x: (a[0] * x[..., 0] * x[..., 1]
                            + a[1] * x[..., 1] * x[..., 2]) / radius(x) ** 3,
    }
    vectors = {
        "identity": lambda x: x + 0.0,
        "swirl": lambda x: np.stack(
            [-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], axis=-1
        ) * np.exp(1.0 - radius(x))[..., None],
        "vpoly": lambda x: np.stack(
            [a[2] * x[..., 0] * x[..., 1], a[3] * x[..., 2] ** 2,
             a[4] * x[..., 0] * x[..., 2]], axis=-1
        ) / radius(x)[..., None] ** 2,
        "vsmooth": lambda x: np.stack(
            [a[5] * x[..., 2], a[6] * x[..., 0], a[7] * x[..., 1]], axis=-1
        ) * np.exp(1.0 - radius(x))[..., None],
        "radial_quad": lambda x: radius(x)[..., None] * x,
    }
    points = {c: _corpus_points(rng, c, n_points) for c in CHARTS}
    return OpSample(scalar_fields=scalars, vector_fields=vectors, points=points)


# ---------------------------------------------------------------------------
# closed-form derivatives of the chart frame (from the frame relations)


def _frame(fr):
    """r, sin theta, cos theta and the frame at the base points of a chart jet."""
    return tuple(j.value for j in (fr.r, fr.sin, fr.cos, fr.rhat, fr.that, fr.phat))


def _d_hat(kind: str, which: str, k: int, fv):
    """k-th scaled derivative (k >= 1) of a unit vector field, closed form."""
    r, s, c, rhat, that, phat = fv
    zero = np.zeros_like(rhat)
    if which == "r":
        return zero
    s_, c_ = s[..., None], c[..., None]
    if which == "theta":
        table = {
            "r": [that, -rhat, -that],
            "theta": [-rhat, -that, rhat],
            "phi": [zero, zero, zero],
        }
    else:  # phi
        table = {
            "r": [s_ * phat, -s_**2 * rhat - s_ * c_ * that, -s_ * phat],
            "theta": [c_ * phat, -s_ * c_ * rhat - c_**2 * that, -c_ * phat],
            "phi": [-s_ * rhat - c_ * that, -phat, s_ * rhat + c_ * that],
        }
    return table[kind][k - 1]


def _d_theta_over_r(which: str, k: int, fv):
    """k-th scaled derivative (k >= 1) of theta_hat / r."""
    r, s, c, rhat, that, phat = fv
    if which == "r":
        coeff = (-1.0) ** k * np.prod(np.arange(1, k + 1)) / r ** (k + 1)
        return coeff[..., None] * that
    return _d_hat("theta", which, k, fv) / r[..., None]


def _d_phi_over_rs(which: str, k: int, fv):
    """k-th scaled derivative (k >= 1) of phi_hat / (r sin theta)."""
    r, s, c, rhat, that, phat = fv
    rs = (r * s)[..., None]
    if which == "r":
        coeff = (-1.0) ** k * np.prod(np.arange(1, k + 1)) / (r ** (k + 1) * s)
        return coeff[..., None] * phat
    if which == "theta":
        # d_theta phi_hat = 0, so only 1/sin differentiates
        inv_s = [None, -c / s**2, (1 + c**2) / s**3, -c * (5 + c**2) / s**4][k]
        return (inv_s / r)[..., None] * phat
    return _d_hat("phi", "phi", k, fv) / rs


def _d_cot(k: int, fv):
    _, s, c, *_ = fv
    return [c / s, -1.0 / s**2, 2 * c / s**3, -(2 + 4 * c**2) / s**4][k]


def _d_inv_sin2(k: int, fv):
    _, s, c, *_ = fv
    return [1.0 / s**2, -2 * c / s**3, (2 + 4 * c**2) / s**4,
            -8 * c * (3 - s**2) / s**5][k]


_ORDER_AXIS = {"r": 0, "theta": 1, "phi": 2}


def _orders(which: str, k: int, extra: str = "r", j: int = 0):
    """Orders of d_which^k, times d_extra^j."""
    o = [0, 0, 0]
    o[_ORDER_AXIS[which]] += k
    o[_ORDER_AXIS[extra]] += j
    return tuple(o)


# ---------------------------------------------------------------------------
# commutators: operator compositions on chart jets vs closed-form expansions;
# F is a scalar and V a vector field evaluated on the jet of points fr.x


def _frame_term(F, fv, which, k, m):
    """d_which^k of grad's frame coefficients e_hat/h_e against d_which^m d_e F."""
    return (_d_hat("r", which, k, fv) * F.deriv(_orders(which, m, "r", 1))[..., None]
            + _d_theta_over_r(which, k, fv) * F.deriv(_orders(which, m, "theta", 1))[..., None]
            + _d_phi_over_rs(which, k, fv) * F.deriv(_orders(which, m, "phi", 1))[..., None])


def _comm_grad(F, fr, N, which):
    fv = _frame(fr)
    o = _orders(which, N)
    lhs = sph_grad(F, fr).deriv(o) - sph_grad(partial(F, o), fr).value
    rhs = sum(comb(N, m) * _frame_term(F, fv, which, N - m, m) for m in range(N))
    return lhs, rhs


def _comm_lap(F, fr, N, which):
    fv = _frame(fr)
    o = _orders(which, N)
    lhs = sph_lap(F, fr).deriv(o) - sph_lap(partial(F, o), fr).value
    rhs = np.zeros_like(lhs)
    if which == "theta":
        r = fv[0]
        for m in range(N):
            k = N - m
            dt = F.deriv(_orders("theta", m, "theta", 1))
            dpp = F.deriv(_orders("theta", m, "phi", 2))
            rhs += comb(N, m) * (dt * _d_cot(k, fv) + dpp * _d_inv_sin2(k, fv)) / r**2
    # for which == "phi" every coefficient is axisymmetric: the commutator vanishes
    return lhs, rhs


def _comm_advect(F, V, fr, N, which):
    fv = _frame(fr)
    o = _orders(which, N)
    lhs = (np.sum(V * sph_grad(F, fr), axis=-1).deriv(o)
           - np.sum(V.value * sph_grad(partial(F, o), fr).value, axis=-1))

    rhs = np.zeros_like(lhs)
    for k in range(N):
        dv = V.deriv(_orders(which, N - k))
        g = sph_grad(partial(F, _orders(which, k)), fr).value
        rhs += comb(N, k) * np.sum(dv * g, axis=-1)
    for m in range(N):
        for k in range(m + 1, N + 1):
            dv = V.deriv(_orders(which, N - k))
            rhs += comb(N, k) * comb(k, m) * np.sum(
                dv * _frame_term(F, fv, which, k - m, m), axis=-1)
    return lhs, rhs


def graddiv_expansion(V, fr):
    """grad div V of an (n, 3) jet on fr, term by term in the chart frame."""
    c, rhat, that, phat = fr.cos, fr.rhat, fr.that, fr.phat
    ir, irs = fr.inv_r, fr.inv_rs
    ir2, ir2s, ir2s2 = ir * ir, ir * irs, irs * irs
    s_r, s_t, s_p = (np.sum(h * V, axis=-1) for h in (rhat, that, phat))
    P = partial
    out = rhat * np.sum(rhat * P(V, (2, 0, 0)), axis=-1)[..., None]
    out += that * (P(s_r, (1, 1, 0)) * ir)[..., None]
    out += phat * (P(s_r, (1, 0, 1)) * irs)[..., None]
    out += 2.0 * rhat * (P(s_r, (1, 0, 0)) * ir - s_r * ir2)[..., None]
    out += that * (2.0 * P(s_r, (0, 1, 0)) * ir2)[..., None]
    out += phat * (2.0 * P(s_r, (0, 0, 1)) * ir2s)[..., None]
    out += rhat * (P(s_t, (1, 1, 0)) * ir - P(s_t, (0, 1, 0)) * ir2)[..., None]
    out += that * (P(s_t, (0, 2, 0)) * ir2)[..., None]
    out += phat * (P(s_t, (0, 1, 1)) * ir2s)[..., None]
    out += rhat * ((P(s_t, (1, 0, 0)) * c) * irs - s_t * c * ir2s)[..., None]
    out += that * P(s_t * c * ir2s, (0, 1, 0))[..., None]
    out += phat * (P(s_t, (0, 0, 1)) * c * ir2s2)[..., None]
    out += rhat * (P(s_p, (1, 0, 1)) * irs - P(s_p, (0, 0, 1)) * ir2s)[..., None]
    out += that * P(P(s_p, (0, 0, 1)) * ir2s, (0, 1, 0))[..., None]
    out += phat * (P(s_p, (0, 0, 2)) * ir2s2)[..., None]
    return out


def _comm_graddiv(V, fr, N, which):
    o = _orders(which, N)
    dN_V = partial(V, o)
    lhs = (sph_grad(sph_div(V, fr), fr).deriv(o)
           - sph_grad(sph_div(dN_V, fr), fr).value)
    rhs = graddiv_expansion(V, fr).deriv(o) - graddiv_expansion(dN_V, fr).value
    return lhs, rhs


_KINDS = ("grad", "lap", "advect", "graddiv")


def _mag(arr):
    if arr.ndim > 1:
        return np.sqrt(np.sum(arr**2, axis=-1))
    return np.abs(arr)


def _string_max(F, length, radial=True):
    """Max over all mixed derivative strings of a given length of a jet.

    radial=False restricts the strings to the two angular derivatives, the
    sense of the plain angular derivative powers in the structural bounds.
    """
    best = 0.0
    for o1 in range((length + 1) if radial else 1):
        for o2 in range(length + 1 - o1):
            best = np.maximum(best, _mag(F.deriv((o1, o2, length - o1 - o2))))
    return best


def commutator_check(kind: str, N: int, sample: OpSample, chart: str,
                     n_points: int, which, rng_seed: int):
    """Equality and bound test for one commutator kind at one order.

    Equality: the commutator evaluated as a difference of operator
    compositions must match its closed-form expansion.  Bound: the
    chi-weighted magnitude is compared against the structural majorant and
    the implied constant is fitted and reported.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if not 1 <= N <= 3:
        raise ValueError("N must be 1, 2 or 3")
    pts = sample.points[chart][:n_points]
    # the commutator's lhs differentiates N times an operator of order 1 or 2
    fr = chart_jet(pts, chart, N + (2 if kind in ("lap", "graddiv") else 1))
    rng = np.random.default_rng(rng_seed)
    chi = cutoffs.chi(pts, chart)

    def draw(fields):
        """One field of the corpus, drawn by the seeded rng, on the chart jet."""
        return list(fields.values())[rng.integers(len(fields))](fr.x)

    max_err = 0.0
    fitted_c = 0.0
    for w in which:
        if kind == "grad":
            F = draw(sample.scalar_fields)
            lhs, rhs = _comm_grad(F, fr, N, w)
            bound = sum(_mag(sph_grad(partial(F, _orders(w, m)), fr).value)
                        for m in range(N))
        elif kind == "lap":
            F = draw(sample.scalar_fields)
            lhs, rhs = _comm_lap(F, fr, N, w)
            bound = sum(_string_max(F, m, radial=False)
                        for m in range(1, N + 2)) / fr.r.value**2
        elif kind == "advect":
            F = draw(sample.scalar_fields)
            V = draw(sample.vector_fields)
            lhs, rhs = _comm_advect(F, V, fr, N, w)
            bound = sum(
                _string_max(F, k) * sum(_string_max(V, m) for m in range(N - k + 2))
                for k in range(1, N + 1)
            )
        else:
            V = draw(sample.vector_fields)
            lhs, rhs = _comm_graddiv(V, fr, N, w)
            bound = _mag(V.value) / fr.r.value**2 + sum(
                _string_max(partial(V, _orders(w, m)), 2) for m in range(N))
        max_err = max(max_err, float(np.max(_mag(lhs - rhs))))
        live = (chi > 1e-12) & (bound > 1e-12)
        if np.any(live):
            ratio = (chi * _mag(lhs))[live] / (chi * bound)[live]
            fitted_c = max(fitted_c, float(np.max(ratio)))
    return {"kind": kind, "N": N, "chart": chart, "max_equality_err": max_err,
            "fitted_C": fitted_c}


def rr_cancellation(V, fr: ChartJet):
    """Two evaluations of r_hat . lap V - d_r div V, which carry no d_r^2 V.

    Route one composes the spherical Laplacian/divergence operators; route
    two evaluates the explicit difference of their frame expansions, from
    which the second radial derivative cancels identically.  fr is a chart
    jet of degree >= 2 (`chart_jet`) of the points.
    """
    VJ = V(fr.x)
    r, s, c, rhat, that, phat = _frame(fr)
    route1 = (sum(rhat[:, j] * sph_lap(VJ[..., j], fr).value for j in range(3))
              - sph_div(VJ, fr).deriv((1, 0, 0)))
    D = VJ.deriv
    route2 = (
        2.0 / r * np.sum(rhat * D((1, 0, 0)), axis=-1)
        + c / (s * r**2) * np.sum(rhat * D((0, 1, 0)), axis=-1)
        + np.sum(rhat * D((0, 2, 0)), axis=-1) / r**2
        + np.sum(rhat * D((0, 0, 2)), axis=-1) / (r * s) ** 2
        - np.sum(that * D((1, 1, 0)), axis=-1) / r
        + np.sum(that * D((0, 1, 0)), axis=-1) / r**2
        - np.sum(phat * D((1, 0, 1)), axis=-1) / (r * s)
        + np.sum(phat * D((0, 0, 1)), axis=-1) / (r**2 * s)
    )
    return route1, route2


def rr_insensitivity(V, fr: ChartJet):
    """route2 must be blind to adding a pure radial field W(r) r_hat, W = r^3."""
    augmented = lambda p: V(p) + radius(p, keepdims=True) ** 2 * p  # noqa: E731
    return float(np.max(np.abs(rr_cancellation(V, fr)[1] - rr_cancellation(augmented, fr)[1])))


# ---------------------------------------------------------------------------
# Hardy inequality


HARDY_GAUSS = 8  # Gauss radii per radial panel of `hardy_check`


def _radial_panels(r_max: float, n_panels: int):
    """(nodes, weights) of n_panels geometric panels on [1, r_max], each
    with HARDY_GAUSS Gauss radii, panel after panel."""
    edges = np.geomspace(1.0, r_max, n_panels + 1)
    xg, wg = np.polynomial.legendre.leggauss(HARDY_GAUSS)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _doubled_radius(quad, r_max: float):
    """(lhs, rhs, lhs / rhs) of quad(2 r_max), the Hardy sides truncated at
    2 r_max, after the test that doubling the radius from r_max moves
    neither side by more than 1%; raises TailNotConverged otherwise."""
    lhs, rhs = quad(r_max)
    lhs2, rhs2 = quad(2.0 * r_max)
    if abs(lhs2 - lhs) > 0.01 * max(abs(lhs2), 1e-300) or \
       abs(rhs2 - rhs) > 0.01 * max(abs(rhs2), 1e-300):
        raise TailNotConverged("quadrature tail beyond r_max exceeds 1%")
    ratio = 0.0 if rhs2 == 0.0 else lhs2 / rhs2
    return lhs2, rhs2, ratio


def hardy_check(u, r_max: float = 60.0, grad=None,
                n_panels: int = 20, n_theta: int = 24, n_phi: int = 24):
    """Hardy inequality ∫|u|^2/|x|^2 + ∮_{|x|=1}|u|^2 <= 2n ∫|grad u|^2 in
    n = 3 dimensions.

    u is a vectorized Cartesian field, scalar or vector, which the shape of
    its values tells; the gradient falls back to Cartesian finite
    differences when not supplied.  The volume rule is n_panels geometric
    radial panels of HARDY_GAUSS Gauss radii times an n_theta x n_phi
    Gauss-trapezoid angular rule; u and |grad u|^2 are evaluated one panel
    at a time, and the sums still run one radius at a time, in order.
    Raises TailNotConverged when doubling the truncation radius moves either
    side by more than 1%.
    """
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    s = np.sqrt(1.0 - mu**2)
    unit = np.stack([
        np.outer(s, np.cos(phi)),
        np.outer(s, np.sin(phi)),
        np.repeat(mu[:, None], n_phi, axis=1),
    ], axis=-1).reshape(-1, 3)  # the unit sphere, theta-major
    ang_w = np.repeat(wmu, n_phi) * (2.0 * np.pi / n_phi)

    def sq(val):  # a vector field's values carry an axis more than its points'
        return np.sum(val**2, axis=-1) if val.ndim > 1 else val**2

    def gradsq(pts):
        if grad is None:
            return cart_grad_sq(u, pts, h=2e-4)
        g = grad(pts)
        return np.sum(g.reshape(g.shape[0], -1) ** 2, axis=1)

    def quad(rm):
        rr, wr = _radial_panels(rm, n_panels)
        vol_lhs = 0.0
        vol_rhs = 0.0
        for r_pan, w_pan in zip(rr.reshape(n_panels, -1), wr.reshape(n_panels, -1)):
            cloud = (r_pan[:, None, None] * unit).reshape(-1, 3)
            u_sq = sq(u(cloud)).reshape(r_pan.size, -1)
            g_sq = gradsq(cloud).reshape(r_pan.size, -1)
            for r, w, u_r, g_r in zip(r_pan, w_pan, u_sq, g_sq):
                vol_lhs += w * r**2 * np.sum(ang_w * u_r / r**2)
                vol_rhs += w * r**2 * np.sum(ang_w * g_r)
        surface = np.sum(ang_w * sq(u(unit)))
        return vol_lhs + surface, 6.0 * vol_rhs  # the constant 2n

    return _doubled_radius(quad, r_max)


# the Hardy corpus of the verification suite: name -> field
HARDY_FIELDS = {
    "inv_r2": lambda x: radius(x) ** -2.0,
    "radial_exp": lambda x: np.exp(1.0 - radius(x)),
    "dipole": lambda x: x[..., 2] / radius(x) ** 3,
    "skewed_exp": lambda x: np.exp(1.0 - radius(x)) * (1 + x[..., 0] / (2 * radius(x))),
    "swirl_vec": lambda x: (np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])],
                                     axis=-1) / radius(x)[..., None] ** 3),
}


_E1 = np.array([1.0, 0.0, 0.0])
_E3 = np.array([0.0, 0.0, 1.0])
_SWIRL_J = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _inv_r2_grad(x):
    return -2.0 * x / radius(x, keepdims=True) ** 4


def _radial_exp_grad(x):
    r = radius(x, keepdims=True)
    return -np.exp(1.0 - r) * x / r


def _dipole_grad(x):
    r = radius(x, keepdims=True)
    return _E3 / r**3 - 3.0 * x[..., 2:] * x / r**5


def _skewed_exp_grad(x):
    r = radius(x, keepdims=True)
    e = np.exp(1.0 - r)
    x1 = x[..., :1]
    return -e * (1 + x1 / (2 * r)) * x / r + e * (_E1 / (2 * r) - x1 * x / (2 * r**3))


def _swirl_vec_grad(x):
    """d_j u_i at [..., i, j]: J_ij / r^3 - 3 u_i x_j / r^2, with u = J x / r^3."""
    r = radius(x)[..., None, None]
    u = (x @ _SWIRL_J.T)[..., :, None] / r**3
    return _SWIRL_J / r**3 - 3.0 * u * x[..., None, :] / r**2


# closed-form Cartesian gradients of the Hardy corpus, keyed like HARDY_FIELDS;
# a vector field's is (..., 3, 3), d_j u_i at [..., i, j]
HARDY_GRADIENTS = {
    "inv_r2": _inv_r2_grad,
    "radial_exp": _radial_exp_grad,
    "dipole": _dipole_grad,
    "skewed_exp": _skewed_exp_grad,
    "swirl_vec": _swirl_vec_grad,
}


# ---------------------------------------------------------------------------
# full verification suite


def _hat_relation_rows(sample):
    """The frame relations, on the Cartesian unit-vector formulas."""
    rows = []
    for chart in CHARTS:
        fr = chart_jet(sample.points[chart][:40], chart, 1)
        hats = unit_vectors(fr.x, chart)
        _, s, c, rhat, that, phat = _frame(fr)
        ss, cc = s[..., None], c[..., None]
        D = lambda j, o: hats[j].deriv(o)  # noqa: E731
        pairs = {
            "dr_rhat": D(0, (1, 0, 0)),
            "dtheta_rhat": D(0, (0, 1, 0)) - that,
            "dphi_rhat": D(0, (0, 0, 1)) - ss * phat,
            "dr_thetahat": D(1, (1, 0, 0)),
            "dtheta_thetahat": D(1, (0, 1, 0)) + rhat,
            "dphi_thetahat": D(1, (0, 0, 1)) - cc * phat,
            "dr_phihat": D(2, (1, 0, 0)),
            "dtheta_phihat": D(2, (0, 1, 0)),
            "dphi_phihat": D(2, (0, 0, 1)) + ss * rhat + cc * that,
        }
        for name, resid in pairs.items():
            rows.append(_row(f"frame/{chart}/{name}", np.max(np.abs(resid)), 1e-6))
        gram = np.einsum("bic,bjc->bij", np.stack([rhat, that, phat], axis=1),
                         np.stack([rhat, that, phat], axis=1))
        rows.append(_row(f"frame/{chart}/orthonormal",
                         np.max(np.abs(gram - np.eye(3))), 1e-12))
    return rows


def _operator_rows(sample):
    rows = []
    for chart in CHARTS:
        pts = sample.points[chart]
        fr = chart_jet(pts, chart, 2)
        worst_g = worst_d = worst_l = 0.0
        for F in sample.scalar_fields.values():
            FJ = F(fr.x)
            g = sph_grad(FJ, fr).value - cart_grad(F, pts)
            l = sph_lap(FJ, fr).value - cart_lap(F, pts)
            worst_g = max(worst_g, float(np.max(np.abs(g))))
            worst_l = max(worst_l, float(np.max(np.abs(l))))
        for V in sample.vector_fields.values():
            d = sph_div(V(fr.x), fr).value - cart_div(V, pts)
            worst_d = max(worst_d, float(np.max(np.abs(d))))
        rows.append(_row(f"operators/{chart}/grad", worst_g, 1e-5))
        rows.append(_row(f"operators/{chart}/div", worst_d, 1e-5))
        rows.append(_row(f"operators/{chart}/lap", worst_l, 1e-5))
    return rows


def _cutoff_rows(rng):
    rows = []
    x = rng.normal(size=(4000, 3))
    x /= radius(x, keepdims=True)
    x *= rng.uniform(1.0, 6.0, (4000, 1))
    cv, ch = cutoffs.chi(x, "V"), cutoffs.chi(x, "H")
    rows.append(_row("cutoff/partition_min", 1.0 - np.min(cv + ch), 1e-10,
                     note="1 - min(chi_V + chi_H)"))
    rows.append(_row("cutoff/range", max(np.max(cv) - 1.0, -np.min(cv),
                                         np.max(ch) - 1.0, -np.min(ch)), 1e-12))
    _, theta_v, _ = to_spherical(x, "V")
    outside = (theta_v < np.pi / 9) | (theta_v > 8 * np.pi / 9)
    rows.append(_row("cutoff/support_exact_zero",
                     float(np.max(np.abs(cv[outside]))) if outside.any() else 0.0,
                     0.0))
    pts = x[:300]
    rhat = pts / radius(pts, keepdims=True)
    for chart in CHARTS:
        g = cutoffs.grad_chi(pts, chart)
        rows.append(_row(f"cutoff/chi_{chart}_radial_grad",
                         np.max(np.abs(np.sum(rhat * g, axis=1))), 1e-8))
        azim = np.zeros(pts.shape[0])
        chi = cutoffs.chi(pts, chart)
        sel = chi > 1e-13  # support lies inside the chart band
        if np.any(sel):
            _, _, phat = unit_vectors(pts[sel], chart)
            azim[sel] = np.abs(np.sum(phat * g[sel], axis=1))
        rows.append(_row(f"cutoff/chi_{chart}_azimuthal_grad", np.max(azim), 1e-8))
        gfd = cart_grad(lambda p, c=chart: cutoffs.chi(p, c), pts, h=2e-4)
        rows.append(_row(f"cutoff/chi_{chart}_grad_fd", np.max(np.abs(g - gfd)), 1e-5))
        cfit = float(np.max(np.sum(g[sel] ** 2, axis=1) / chi[sel])) if sel.any() else 0.0
        rows.append(CheckRow(f"cutoff/chi_{chart}_grad_sq_over_chi", cfit, np.inf, True,
                             note="fitted C in |grad chi|^2 <= C chi"))
    return rows


def run_verify_ops(seed: int) -> list[CheckRow]:
    """Full operator verification suite on the seeded corpus of CORPUS_POINTS
    points per chart; returns one row per check."""
    sample = default_corpus(seed)
    rng = np.random.default_rng(seed + 1)
    rows = []
    rows += _hat_relation_rows(sample)
    rows += _operator_rows(sample)
    rows += _cutoff_rows(rng)

    for kind in _KINDS:
        for N in (1, 2, 3):
            for chart in CHARTS:
                which = ("r", "theta", "phi") if kind == "advect" else ("theta", "phi")
                rep = commutator_check(kind, N, sample, chart=chart,
                                       n_points=COMMUTATOR_POINTS, which=which,
                                       rng_seed=seed + N)
                rows.append(_row(f"commutator/{kind}/N{N}/{chart}",
                                 rep["max_equality_err"], 1e-4,
                                 note=f"fitted C = {rep['fitted_C']:.3g}"))

    # grad div expansion against the Cartesian oracle
    for chart in CHARTS:
        pts = sample.points[chart][:30]
        fr = chart_jet(pts, chart, 2)
        worst = 0.0
        for V in sample.vector_fields.values():
            e = graddiv_expansion(V(fr.x), fr).value - cart_grad_div(V, pts)
            worst = max(worst, float(np.max(np.abs(e))))
        rows.append(_row(f"graddiv_expansion/{chart}", worst, 1e-4))

    # radial-radial cancellation, on one chart jet per chart
    for chart in CHARTS:
        fr = chart_jet(sample.points[chart], chart, 2)
        worst = 0.0
        for V in sample.vector_fields.values():
            r1, r2 = rr_cancellation(V, fr)
            worst = max(worst, float(np.max(np.abs(r1 - r2))))
        rows.append(_row(f"rr_cancel/{chart}/two_routes", worst, 1e-4))
        fr40 = ChartJet(*(j[:40] for j in fr))
        worst_aug = max(rr_insensitivity(sample.vector_fields["vsmooth"], fr40),
                        rr_insensitivity(sample.vector_fields["radial_quad"], fr40))
        rows.append(_row(f"rr_cancel/{chart}/radial_blind", worst_aug, 1e-4))

    # Hardy inequality corpus (n = 3, constant 2n = 6)
    hardy = {name: hardy_check(u, grad=HARDY_GRADIENTS[name])
             for name, u in HARDY_FIELDS.items()}
    for name, (lhs, rhs, ratio) in hardy.items():
        rows.append(_row(f"hardy/{name}", max(0.0, (lhs - rhs) / max(rhs, 1e-300)),
                         0.0, note=f"lhs={lhs:.6g} rhs={rhs:.6g} ratio={ratio:.4f}"))
    lhs, rhs, _ = hardy["inv_r2"]
    rows.append(_row("hardy/inv_r2_closed_form_lhs",
                     abs(lhs - 16 * np.pi / 3) / (16 * np.pi / 3), 1e-3))
    rows.append(_row("hardy/inv_r2_closed_form_rhs",
                     abs(rhs - 32 * np.pi) / (32 * np.pi), 1e-3))
    return rows
