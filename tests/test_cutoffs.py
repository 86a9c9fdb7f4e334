import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow import sphops as so
from outflow import cutoffs
from outflow.cutoffs import xi_tilde, xi_tilde_prime
from outflow.opchecks import _central_grad


def test_reference_values():
    assert xi_tilde(np.pi / 2) == pytest.approx(1.0)
    assert xi_tilde(np.pi / 8) == pytest.approx(0.0)
    assert xi_tilde(np.pi / 4) == pytest.approx(0.5)


def test_domain_error():
    with pytest.raises(ValueError):
        xi_tilde(-0.1)
    with pytest.raises(ValueError):
        xi_tilde(np.pi + 0.1)


@given(theta=st.floats(0.0, float(np.pi)))
@settings(max_examples=200, deadline=None)
def test_profile_bounds_and_slope(theta):
    v = float(xi_tilde(theta))
    dv = float(xi_tilde_prime(theta))
    assert 0.0 <= v <= 1.0
    assert dv**2 <= 128.0 / np.pi**2 * v + 1e-12


def test_profile_support():
    th = np.linspace(0, np.pi, 4001)
    v = xi_tilde(th)
    outside = (th < np.pi / 8) | (th > 7 * np.pi / 8)
    assert np.all(v[outside] == 0.0)
    assert np.all(v[(th > 3 * np.pi / 8) & (th < 5 * np.pi / 8)] == 1.0)


def test_mollified_support_and_width_guard():
    th = np.linspace(0, np.pi, 4001)
    xi = cutoffs.xi(th)
    outside = (th < np.pi / 9 - 1e-12) | (th > 8 * np.pi / 9 + 1e-12)
    assert np.all(xi[outside] == 0.0)
    assert np.all((xi >= 0.0) & (xi <= 1.0 + 1e-15))


def test_partition_of_unity():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30000, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(1.0, 8.0, (30000, 1))
    total = cutoffs.chi(x, "V") + cutoffs.chi(x, "H")
    assert np.min(total) >= 1.0 - 1e-10
    assert np.max(cutoffs.chi(x, "V")) <= 1.0 + 1e-15
    assert np.min(cutoffs.chi(x, "V")) >= 0.0


def test_chart_plateau_values():
    # equator of each chart
    assert cutoffs.chi(np.array([[2.0, 0.5, 0.0]]), "V") == pytest.approx(1.0)
    assert cutoffs.chi(np.array([[2.0, 0.0, 0.5]]), "H") == pytest.approx(1.0)
    # near the V pole the complementary chart takes over completely
    th = np.pi / 20
    x = np.array([[np.sin(th), 0.0, np.cos(th)]]) * 2.0
    assert cutoffs.chi(x, "V")[0] == 0.0
    assert cutoffs.chi(x, "H")[0] == pytest.approx(1.0)


def test_gradient_structure():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(100, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(1.0, 5.0, (100, 1))
    for chart in ("V", "H"):
        chi = lambda p, c=chart: cutoffs.chi(p, c)  # noqa: E731
        g = cutoffs.grad_chi(x, chart)
        rhat = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert np.max(np.abs(np.sum(rhat * g, axis=1))) <= 1e-8
        live = np.linalg.norm(g, axis=1) > 0
        if np.any(live):
            _, _, phat = so.unit_vectors(x[live], chart)
            assert np.max(np.abs(np.sum(phat * g[live], axis=1))) <= 1e-8
        # finite-difference cross-check of the closed-form gradient
        gfd = _central_grad(chi, x[:40])
        assert np.max(np.abs(g[:40] - gfd)) <= 1e-5
        # fitted constant of the gradient-squared bound
        c = cutoffs.xi(np.linspace(0, np.pi, 1001))
        chi_x = chi(x)
        mask = chi_x > 1e-13
        fitted = np.max(np.sum(g[mask] ** 2, axis=1) / chi_x[mask])
        assert np.isfinite(fitted) and fitted < 50.0
        del c
