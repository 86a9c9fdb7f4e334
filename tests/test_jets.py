from math import factorial

import numpy as np
import pytest

from outflow.jets import DEGREE, partial, variables


def _base(n=25, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(1.15, 4.0, n), rng.uniform(0.4, 2.7, n),
            rng.uniform(0.0, 2 * np.pi, n))


def test_polar_derivatives_of_x3_to_degree_five():
    """x3 = r cos(theta): d_theta^k x3 = r cos(theta + k pi/2), d_r d_theta x3 = -sin."""
    r0, th0, ph0 = _base()
    r, th, _ = variables(r0, th0, ph0)
    x3 = r * np.cos(th)
    for k in range(DEGREE + 1):
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
    jet = f(variables(*base)[axis])
    for k in range(DEGREE + 1):
        orders = tuple(k * (a == axis) for a in range(3))
        want = df(k, base[axis])
        assert np.max(np.abs(jet.deriv(orders) - want) / (1.0 + np.abs(want))) <= 1e-14, k


def test_arrays_stack_sum_and_index_like_their_values():
    """A corpus-style field gives, at the base point, its value on plain arrays."""
    r, th, ph = variables(*_base())
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
    r, _, _ = variables(*_base())
    with pytest.raises(ValueError):
        r.deriv((3, 2, 1))
