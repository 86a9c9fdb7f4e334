from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow.jets import partial, variables
from outflow.opchecks import default_corpus
from outflow.sphops import chart_jet, from_spherical


def _base(n=25, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(1.15, 4.0, n), rng.uniform(0.4, 2.7, n),
            rng.uniform(0.0, 2 * np.pi, n))


def test_polar_derivatives_of_x3_to_degree_five():
    """x3 = r cos(theta): d_theta^k x3 = r cos(theta + k pi/2), d_r d_theta x3 = -sin."""
    r0, th0, ph0 = _base()
    r, th, _ = variables(r0, th0, ph0, degree=5)
    x3 = r * np.cos(th)
    for k in range(6):
        assert np.max(np.abs(x3.deriv((0, k, 0)) - r0 * np.cos(th0 + k * np.pi / 2))) <= 1e-14
    assert np.max(np.abs(x3.deriv((1, 1, 0)) + np.sin(th0))) <= 1e-15
    assert np.array_equal(partial(x3, (1, 1, 0)).value, x3.deriv((1, 1, 0)))


def _falling(p, k):
    return np.prod([p - i for i in range(k)])


CLOSED_FORMS = {
    "exp": (np.exp, lambda k, t: np.exp(t)),
    "sqrt": (np.sqrt, lambda k, t: _falling(0.5, k) * t ** (0.5 - k)),
    "power": (lambda x: x ** -2.5, lambda k, t: _falling(-2.5, k) * t ** (-2.5 - k)),
    "cube": (lambda x: x ** 3, lambda k, t: _falling(3, k) * t ** max(3 - k, 0)),
    "reciprocal": (lambda x: 1.0 / x, lambda k, t: (-1.0) ** k * factorial(k) / t ** (k + 1)),
    "sin": (np.sin, lambda k, t: np.sin(t + k * np.pi / 2)),
    "cos": (np.cos, lambda k, t: np.cos(t + k * np.pi / 2)),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_unary_functions_match_their_closed_form_derivatives(name, axis):
    f, df = CLOSED_FORMS[name]
    base = _base(seed=axis + 1)
    jet = f(variables(*base, degree=5)[axis])
    for k in range(6):
        orders = tuple(k * (a == axis) for a in range(3))
        want = df(k, base[axis])
        assert np.max(np.abs(jet.deriv(orders) - want) / (1.0 + np.abs(want))) <= 1e-14, k


def test_arrays_stack_sum_and_index_like_their_values():
    """A corpus-style field gives, at the base point, its value on plain arrays."""
    r, th, ph = variables(*_base(), degree=2)
    x = np.stack([r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph),
                  r * np.cos(th)], axis=-1)
    a = np.array([0.7, -1.3, 0.4])
    field = lambda p: np.stack(  # noqa: E731
        [p[..., 1] * a[0], np.zeros_like(p[..., 0]), 2.0 - p[..., 2]], axis=-1
    ) * np.exp(-0.5 * np.sum((p - a) ** 2, axis=-1))[..., None] / p[..., :1]
    assert field(x).value.shape == (len(r.value), 3)
    assert np.allclose(field(x).value, field(x.value), rtol=1e-14, atol=0.0)
    assert np.allclose(np.sum(x * x, axis=-1).deriv((1, 0, 0)), 2 * r.value,
                       rtol=1e-14, atol=0.0)


def test_derivatives_beyond_the_degree_are_refused():
    """deriv and partial refuse an order above the jet's own degree and name
    that degree; a partial of order k is a jet k degrees lower."""
    for degree in range(1, 6):
        r, th, _ = variables(*_base(), degree=degree)
        x = r * np.cos(th)
        assert x.degree == degree and len(x.c) == comb(degree + 3, 3)
        x.deriv((0, degree, 0))
        with pytest.raises(ValueError, match=f"a degree-{degree} jet"):
            x.deriv((1, degree, 0))
        with pytest.raises(ValueError, match=f"a degree-{degree} jet"):
            partial(x, (0, 0, degree + 1))
        d1 = partial(x, (1, 0, 0))
        assert d1.degree == degree - 1
        with pytest.raises(ValueError, match=f"a degree-{degree - 1} jet"):
            d1.deriv((0, degree, 0))


def test_a_product_or_sum_takes_the_lower_degree():
    """A degree-2 jet times a degree-5 jet is a degree-2 jet, the first ten
    coefficients of the degree-5 product bit for bit; a constant pads."""
    base = _base()
    r2, _, _ = variables(*base, degree=2)
    r5, th5, _ = variables(*base, degree=5)
    prod = r2 * np.sin(th5)
    assert prod.degree == 2
    assert np.array_equal(prod.c, (r5 * np.sin(th5)).c[:10])
    assert (th5 + r2).degree == 2 and (r2 - 1.5).degree == 2
    assert np.array_equal((1.5 - r2).c, (1.5 - r5).c[:10])


_POINTS = st.lists(st.tuples(st.floats(1.15, 4.0),
                             st.floats(np.pi / 9 + 0.15, 8 * np.pi / 9 - 0.15),
                             st.floats(0.0, 2 * np.pi)), min_size=1, max_size=6)


@settings(max_examples=15, deadline=None)
@given(points=_POINTS, seed=st.integers(0, 2**32 - 1))
def test_a_lower_degree_jet_is_the_head_of_the_degree_five_jet(points, seed):
    """Every corpus field on either chart's degree-d jet, d = 1..5, gives the
    first C(d + 3, 3) coefficients of its degree-5 jet bit for bit: a check
    that asks for the degree it differentiates sees the same numbers."""
    corpus = default_corpus(seed=seed, n_points=1)
    fields = {**corpus.scalar_fields, **corpus.vector_fields}
    r, th, ph = np.array(points).T
    for chart in ("V", "H"):
        pts = from_spherical(r, th, ph, chart)
        full = {name: F(chart_jet(pts, chart, 5).x).c for name, F in fields.items()}
        for d in range(1, 6):
            x = chart_jet(pts, chart, d).x
            for name, F in fields.items():
                assert np.array_equal(F(x).c, full[name][:comb(d + 3, 3)]), (chart, d, name)
