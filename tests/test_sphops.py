import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from outflow import sphops as so
from outflow.jets import partial
from outflow.sphops import AxisDegeneracy


def _sample(chart, n=40, seed=0):
    rng = np.random.default_rng(seed)
    r = rng.uniform(1.2, 4.0, n)
    th = rng.uniform(np.pi / 9 + 0.15, 8 * np.pi / 9 - 0.15, n)
    ph = rng.uniform(0, 2 * np.pi, n)
    return so.from_spherical(r, th, ph, chart)


@pytest.mark.parametrize("chart", ["V", "H"])
def test_orthonormal_frame(chart):
    pts = _sample(chart)
    rhat, that, phat = so.unit_vectors(pts, chart)
    frame = np.stack([rhat, that, phat], axis=1)
    gram = np.einsum("bic,bjc->bij", frame, frame)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12


def test_reference_directions():
    _, _, phat = so.unit_vectors(np.array([[2.0, 0.0, 0.0]]), "V")
    assert np.allclose(phat[0], [0.0, 1.0, 0.0])
    rhat, _, _ = so.unit_vectors(np.array([[0.0, 0.4, 2.0]]), "H")
    assert np.allclose(rhat[0], np.array([0.0, 0.4, 2.0]) / np.hypot(0.4, 2.0))


def test_axis_degeneracy_raised():
    near_pole = np.array([[1e-3, 1e-3, 2.0]])
    with pytest.raises(AxisDegeneracy):
        so.chart_jet(near_pole, "V", 1)
    # same point is comfortably inside the complementary chart
    assert so.chart_jet(near_pole, "H", 1).x[..., 0].deriv((0, 1, 0)).shape == (1,)


def test_scaled_derivatives_of_radius():
    fr = so.chart_jet(_sample("V", 20), "V", 1)
    F = so.radius(fr.x)
    assert np.max(np.abs(F.deriv((1, 0, 0)) - 1.0)) <= 1e-14
    assert np.max(np.abs(F.deriv((0, 1, 0)))) <= 1e-14
    assert np.max(np.abs(F.deriv((0, 0, 1)))) <= 1e-14


def test_polar_derivative_of_x3():
    """d_theta x3 carries the -cylindrical-radius factor of the V frame."""
    pts = _sample("V", 30, seed=2)
    got = so.chart_jet(pts, "V", 1).x[..., 2].deriv((0, 1, 0))
    want = -np.hypot(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("chart", ["V", "H"])
def test_scaled_derivatives_commute(chart):
    fr = so.chart_jet(_sample(chart, 20, seed=3), chart, 2)
    x = fr.x
    F = np.exp(1 - so.radius(x)) * x[..., 0] * x[..., 1]
    ab = partial(partial(F, (0, 1, 0)), (1, 0, 0)).value
    ba = partial(partial(F, (1, 0, 0)), (0, 1, 0)).value
    assert np.max(np.abs(ab - F.deriv((1, 1, 0)))) <= 1e-14
    assert np.max(np.abs(ab - ba)) <= 1e-14


def test_harmonic_function():
    fr = so.chart_jet(_sample("V", 30, seed=4), "V", 2)
    assert np.max(np.abs(so.sph_lap(1.0 / so.radius(fr.x), fr).value)) <= 1e-14


def test_grad_div_lap_against_closed_forms():
    pts = _sample("V", 40, seed=5)
    fr = so.chart_jet(pts, "V", 2)
    x = fr.x
    F = x[..., 0] ** 2 * x[..., 1] - x[..., 2] ** 3
    grad = so.sph_grad(F, fr).value
    div = so.sph_div(x + 0.0, fr).value
    lap = so.sph_lap(F, fr).value
    grad_exact = np.stack([2 * pts[:, 0] * pts[:, 1], pts[:, 0] ** 2,
                           -3 * pts[:, 2] ** 2], axis=-1)
    lap_exact = 2 * pts[:, 1] - 6 * pts[:, 2]
    assert np.max(np.abs(grad - grad_exact)) <= 1e-12
    assert np.max(np.abs(div - 3.0)) <= 1e-12
    assert np.max(np.abs(lap - lap_exact)) <= 1e-12


@pytest.mark.parametrize("chart", ["V", "H"])
def test_spherical_matches_cartesian_oracles(chart):
    pts = _sample(chart, 50, seed=6)
    F = lambda x: np.exp(-0.5 * np.sum((x - np.array([1.2, 0.7, -0.5])) ** 2,  # noqa: E731
                                       axis=-1))
    V = lambda x: np.stack([x[..., 1] * x[..., 2], x[..., 0] ** 2,  # noqa: E731
                            np.exp(1 - so.radius(x))], axis=-1)
    fr, X = so.chart_jet(pts, chart, 2), so.cart_jet(pts, 2)
    assert np.max(np.abs(so.sph_grad(F(fr.x), fr).value
                         - so.cart_grad(F(X)).value)) <= 1e-12
    assert np.max(np.abs(so.sph_div(V(fr.x), fr).value
                         - so.cart_div(V(X)).value)) <= 1e-12
    assert np.max(np.abs(so.sph_lap(F(fr.x), fr).value
                         - so.cart_lap(F(X)).value)) <= 1e-12
    assert np.max(np.abs(so.sph_grad(so.sph_div(V(fr.x), fr), fr).value
                         - so.cart_grad(so.cart_div(V(X))).value)) <= 1e-12


def test_frame_derivative_relations():
    """The nine derivative relations of the moving frame, on the Cartesian
    unit-vector formulas evaluated on the jet of points."""
    for chart in ("V", "H"):
        pts = _sample(chart, 30, seed=7)
        _, th, _ = so.to_spherical(pts, chart)
        s, c = np.sin(th)[:, None], np.cos(th)[:, None]
        rhat, that, phat = so.unit_vectors(pts, chart)
        hats = so.unit_vectors(so.chart_jet(pts, chart, 1).x, chart)
        hat = dict(zip("rtp", hats))

        def D(which, orders):
            return hat[which].deriv(orders)

        assert np.max(np.abs(D("r", (0, 1, 0)) - that)) <= 1e-14
        assert np.max(np.abs(D("r", (0, 0, 1)) - s * phat)) <= 1e-14
        assert np.max(np.abs(D("t", (0, 1, 0)) + rhat)) <= 1e-14
        assert np.max(np.abs(D("t", (0, 0, 1)) - c * phat)) <= 1e-14
        assert np.max(np.abs(D("p", (0, 1, 0)))) <= 1e-14
        assert np.max(np.abs(D("p", (0, 0, 1)) + s * rhat + c * that)) <= 1e-14
        for which in ("r", "t", "p"):
            assert np.max(np.abs(D(which, (1, 0, 0)))) <= 1e-14


_COORD = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(min_value=-1e-150, max_value=1e-150))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=5)
              .map(lambda shape: shape + (3,)), elements=_COORD))
def test_radius_is_bitwise_the_norm(x):
    """radius adds the squares in np.linalg.norm's order, tiny and huge
    coordinates (underflowing and overflowing squares) included."""
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(so.radius(x), np.linalg.norm(x, axis=-1))
        assert np.array_equal(so.radius(x, keepdims=True),
                              np.linalg.norm(x, axis=-1, keepdims=True))
