import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outflow import sphops as so
from outflow.opchecks import (
    HARDY_FIELDS,
    HARDY_GRADIENTS,
    TailNotConverged,
    _radial_panels,
    commutator_check,
    default_corpus,
    graddiv_expansion,
    hardy_check,
    rr_cancellation,
    rr_insensitivity,
    run_verify_ops,
)


def _jet_grad(u):
    """The Cartesian gradient of the field u from its degree-1 Cartesian jet,
    a vector field's d_j u_i at [..., i, j]."""
    return lambda x: so.cart_grad(u(so.cart_jet(x, 1))).value


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(seed=0, n_points=60)


@pytest.mark.parametrize("kind", ["grad", "lap", "advect", "graddiv"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_commutator_equality_and_bound(kind, N, corpus):
    which = ("r", "theta", "phi") if kind == "advect" else ("theta", "phi")
    for chart in ("V", "H"):
        rep = commutator_check(kind, N, corpus, chart=chart, n_points=12,
                               which=which, rng_seed=N)
        assert rep["max_equality_err"] <= 1e-4, rep
        assert np.isfinite(rep["fitted_C"])


def test_commutator_of_constant_vanishes(corpus):
    from outflow.opchecks import _comm_grad, _comm_lap

    fr = so.chart_jet(corpus.points["V"][:10], "V", 5)
    const = np.zeros_like(fr.x[..., 0]) + 2.5
    for N in (1, 2, 3):
        lhs, rhs = _comm_grad(const, fr, N, "theta")
        assert np.max(np.abs(lhs)) <= 1e-14
        assert np.max(np.abs(rhs)) <= 1e-14
        lhs, rhs = _comm_lap(const, fr, N, "theta")
        assert np.max(np.abs(lhs)) <= 1e-14


def test_radial_scalar_single_term_expansion(corpus):
    """For F = g(r) only the frame-derivative term survives at N = 1."""
    from outflow.opchecks import _comm_grad

    pts = corpus.points["V"][:12]
    fr = so.chart_jet(pts, "V", 2)
    lhs, rhs = _comm_grad(np.exp(1.0 - so.radius(fr.x)), fr, 1, "theta")
    r = np.linalg.norm(pts, axis=-1)
    _, that, _ = so.unit_vectors(pts, "V")
    # [d_theta, grad] g(r) = theta_hat g'(r): first-order frame correction
    expect = that * (-np.exp(1.0 - r))[:, None]
    assert np.max(np.abs(lhs - expect)) <= 1e-14
    assert np.max(np.abs(rhs - expect)) <= 1e-14


def test_advect_identity_single_term(corpus):
    """[D, (V.grad)]F with V = x, F = r collapses to one expansion term."""
    from outflow.opchecks import _comm_advect

    fr = so.chart_jet(corpus.points["V"][:12], "V", 2)
    lhs, rhs = _comm_advect(so.radius(fr.x), fr.x + 0.0, fr, 1, "r")
    # (V . grad)F = r, so [d_r, V.grad]F = d_r r - (V.grad) 1 = ... = 1 - 0
    # direct evaluation: d_r(r) = 1 while (V.grad)(d_r F) = (x.grad)(1) = 0
    assert np.max(np.abs(lhs - 1.0)) <= 1e-14
    assert np.max(np.abs(rhs - 1.0)) <= 1e-14


def test_graddiv_expansion_matches_cartesian(corpus):
    for chart in ("V", "H"):
        pts = corpus.points[chart][:20]
        fr, X = so.chart_jet(pts, chart, 2), so.cart_jet(pts, 2)
        for V in corpus.vector_fields.values():
            err = np.max(np.abs(graddiv_expansion(V(fr.x), fr).value
                                - so.cart_grad(so.cart_div(V(X))).value))
            assert err <= 1e-12


def test_rr_cancellation_routes(corpus):
    for chart in ("V", "H"):
        fr = so.chart_jet(corpus.points[chart], chart, 2)
        for name, V in corpus.vector_fields.items():
            r1, r2 = rr_cancellation(V, fr)
            assert np.max(np.abs(r1 - r2)) <= 1e-4, name


def test_rr_trivial_for_identity(corpus):
    fr = so.chart_jet(corpus.points["V"][:20], "V", 2)
    V = lambda x: x + 0.0  # noqa: E731
    r1, r2 = rr_cancellation(V, fr)
    assert np.max(np.abs(r1)) <= 1e-6
    assert np.max(np.abs(r2)) <= 1e-6


def test_rr_blind_to_pure_radial_content(corpus):
    fr = so.chart_jet(corpus.points["V"][:30], "V", 2)
    quad = lambda x: so.radius(x)[..., None] * x  # noqa: E731
    assert rr_insensitivity(quad, fr) <= 1e-4
    assert rr_insensitivity(corpus.vector_fields["vsmooth"], fr) <= 1e-4


def test_hardy_closed_form():
    u = lambda x: so.radius(x) ** -2.0  # noqa: E731
    lhs, rhs, ratio = hardy_check(u, _jet_grad(u))
    assert lhs == pytest.approx(16 * np.pi / 3, rel=1e-3)
    assert rhs == pytest.approx(32 * np.pi, rel=1e-3)
    assert ratio == pytest.approx(1.0 / 6.0, rel=1e-3)
    assert lhs <= rhs


def test_hardy_zero_field():
    zero = lambda x: np.zeros(x.shape[:-1])  # noqa: E731
    lhs, rhs, ratio = hardy_check(zero, lambda x: np.zeros(x.shape))
    assert lhs == 0.0 and rhs == 0.0 and ratio == 0.0


def test_hardy_exponential_two_resolutions():
    u = lambda x: np.exp(1.0 - so.radius(x))  # noqa: E731
    lhs1, rhs1, _ = hardy_check(u, _jet_grad(u), n_panels=20, n_theta=16, n_phi=16)
    lhs2, rhs2, _ = hardy_check(u, _jet_grad(u), n_panels=30, n_theta=32, n_phi=32)
    assert lhs1 == pytest.approx(lhs2, rel=1e-6)
    assert rhs1 == pytest.approx(rhs2, rel=1e-6)
    assert lhs2 <= rhs2


def test_hardy_tail_guard():
    slow = lambda x: so.radius(x) ** -0.6  # not square-integrable against r^-2  # noqa: E731
    with pytest.raises(TailNotConverged):
        hardy_check(slow, _jet_grad(slow), r_max=30.0)


def _is_vector(u) -> bool:
    """Whether the field u takes vector values."""
    return u(np.ones((1, 3))).ndim > 1


def _grad_sq(grad, pts):
    """|grad u|^2 at each point, summed over a vector field's components."""
    g = grad(pts)
    return np.sum(g.reshape(len(pts), -1) ** 2, axis=1)


def _hardy_sides_one_radius_at_a_time(u, grad, r_max, n_panels, n_theta, n_phi):
    """Reference volume and surface sums: one angular cloud per radius."""
    vector = _is_vector(u)
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    s = np.sqrt(1.0 - mu**2)
    unit = np.stack([np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)),
                     np.repeat(mu[:, None], n_phi, axis=1)], axis=-1)
    ang_w = np.repeat(wmu, n_phi) * (2.0 * np.pi / n_phi)

    def sq(val):
        return np.sum(val**2, axis=-1) if vector else val**2

    rr, wr = _radial_panels(r_max, n_panels)
    vol_lhs = vol_rhs = 0.0
    for r, w in zip(rr, wr):
        cloud = (r * unit).reshape(-1, 3)
        vol_lhs += w * r**2 * np.sum(ang_w * sq(u(cloud)) / r**2)
        vol_rhs += w * r**2 * np.sum(ang_w * _grad_sq(grad, cloud))
    surface = np.sum(ang_w * sq(u((1.0 * unit).reshape(-1, 3))))
    return vol_lhs + surface, 6.0 * vol_rhs


@pytest.mark.parametrize("name", ["skewed_exp", "swirl_vec"])
def test_hardy_panels_sum_like_one_radius_at_a_time(name):
    """Evaluating a whole Gauss panel at once leaves both sides bitwise equal.

    Equal totals alone could hide a last-bit change in a term too small to
    move them, so the per-radius values of |u|^2 and |grad u|^2 on one panel
    cloud are compared with those of each radius on its own as well.
    """
    u, grad = HARDY_FIELDS[name], HARDY_GRADIENTS[name]
    lhs, rhs, _ = hardy_check(u, grad, r_max=30.0, n_panels=20, n_theta=12, n_phi=12)
    ref = _hardy_sides_one_radius_at_a_time(u, grad, 60.0, 20, 12, 12)
    assert (lhs, rhs) == ref

    unit = so.from_spherical(1.0, *np.meshgrid(np.linspace(0.1, 3.0, 12),
                                               np.linspace(0.0, 6.0, 12)), "V")
    unit = unit.reshape(-1, 3)
    radii = np.geomspace(1.0, 120.0, 8)
    panel = (radii[:, None, None] * unit).reshape(-1, 3)
    u_pan = u(panel).reshape((8, -1) + u(unit).shape[1:])
    g_pan = _grad_sq(grad, panel).reshape(8, -1)
    for k, r in enumerate(radii):
        assert np.array_equal(u_pan[k], u(r * unit))
        assert np.array_equal(g_pan[k], _grad_sq(grad, r * unit))


def test_hardy_gradients_cover_the_corpus():
    assert HARDY_GRADIENTS.keys() == HARDY_FIELDS.keys()


@pytest.mark.parametrize("name", list(HARDY_FIELDS))
def test_hardy_gradient_matches_cartesian_differences(name):
    """The closed form against the exact partials of the field's Cartesian
    jet, on a seeded cloud with r in [1, 120]."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 3))
    x *= rng.uniform(1.0, 120.0, (400, 1)) / np.linalg.norm(x, axis=-1, keepdims=True)
    g = HARDY_GRADIENTS[name](x)
    exact = _jet_grad(HARDY_FIELDS[name])(x)
    assert g.shape == exact.shape
    assert np.max(np.abs(g - exact)) <= 1e-12 * np.max(np.abs(g))


@pytest.mark.parametrize("name", list(HARDY_FIELDS))
def test_hardy_check_with_the_closed_gradient_matches_the_fallback(name):
    """The closed-form gradient and the field's degree-1 Cartesian jet give
    bitwise the same sides and ratio."""
    u = HARDY_FIELDS[name]
    assert hardy_check(u, HARDY_GRADIENTS[name]) == hardy_check(u, _jet_grad(u))


def test_full_suite_green():
    rows = run_verify_ops(seed=0)
    bad = [r for r in rows if not r.passed]
    assert not bad, bad
    # exact chart derivatives: each commutator equality holds to round-off
    comm = {r.name: r.value for r in rows if r.name.startswith("commutator/")}
    assert len(comm) == 24 and max(comm.values()) <= 1e-10, comm


@given(seed=st.integers(0, 2**31 - 1))
@example(seed=99)
@example(seed=12345)
@example(seed=100)
@settings(max_examples=6, deadline=None)
def test_same_verdict_on_every_corpus_seed(seed):
    """The verdict does not depend on which smooth fields and points are drawn."""
    bad = [r for r in run_verify_ops(seed=seed) if not r.passed]
    assert not bad, bad
