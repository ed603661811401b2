"""Quadrature and reference-element oracles.

Hand values (2-point Gauss nodes, low-order Legendre evaluations) are
asserted directly; everything else is checked against numpy.polynomial's
independent Legendre implementation or against exact monomial integrals.
"""

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from dgcentral.basis import (
    default_rule,
    error_rule,
    gauss_rule,
    legendre_deriv_table,
    legendre_table,
    reference_operators,
)


def test_two_point_rule_hand_values():
    rule = gauss_rule(2)
    root = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(rule.nodes, [-root, root], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_five_point_rule_integrates_x8():
    rule = gauss_rule(5)
    assert abs((rule.nodes**8) @ rule.weights - 2.0 / 9.0) < 1e-14


@pytest.mark.parametrize("n", range(1, 11))
def test_rule_exact_for_degree_2n_minus_1(n):
    rule = gauss_rule(n)
    for m in range(2 * n):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs((rule.nodes**m) @ rule.weights - exact) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_rule_structure(n):
    rule = gauss_rule(n)
    assert rule.nodes.shape == rule.weights.shape == (n,)
    assert abs(rule.weights.sum() - 2.0) < 1e-14
    assert np.all(np.diff(rule.nodes) > 0)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
    # agree with numpy's eigenvalue-based rule
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(rule.nodes, ref_x, atol=1e-14)
    np.testing.assert_allclose(rule.weights, ref_w, atol=1e-14)


def test_rule_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_quadrature_weights_integrate_along_last_axis():
    rule = gauss_rule(4)
    vals = np.stack([rule.nodes**2, rule.nodes**3 + 1.0])
    out = vals @ rule.weights
    np.testing.assert_allclose(out, [2.0 / 3.0, 2.0], atol=1e-14)


def test_legendre_hand_values():
    # L_2 = (3x^2 - 1)/2, L_3 = (5x^3 - 3x)/2
    assert legendre_table(2, 0.5)[2] == pytest.approx(-0.125, abs=1e-15)
    assert legendre_table(3, 0.5)[3] == pytest.approx(-0.4375, abs=1e-15)
    vals = legendre_table(3, np.array([-1.0, 1.0]))
    np.testing.assert_allclose(vals[:, 1], 1.0, atol=0.0)
    np.testing.assert_allclose(vals[:, 0], [1.0, -1.0, 1.0, -1.0], atol=0.0)


def test_legendre_table_matches_numpy():
    x = np.linspace(-1.0, 1.0, 100)
    table = legendre_table(8, x)
    for m in range(9):
        coef = np.zeros(m + 1)
        coef[m] = 1.0
        np.testing.assert_allclose(table[m], npleg.legval(x, coef), atol=1e-13)


def test_legendre_deriv_table_matches_numpy():
    x = np.linspace(-1.0, 1.0, 57)
    table = legendre_deriv_table(6, x)
    for m in range(7):
        coef = np.zeros(m + 1)
        coef[m] = 1.0
        np.testing.assert_allclose(table[m], npleg.legval(x, npleg.legder(coef)), atol=1e-12)


def test_legendre_table_preserves_input_shape():
    x = np.ones((3, 4)) * 0.3
    assert legendre_table(2, x).shape == (3, 3, 4)


class TestReferenceOperators:
    def test_mass_is_exact(self):
        ref = reference_operators(5)
        np.testing.assert_allclose(ref.mass_diag, 2.0 / (2 * np.arange(6) + 1), atol=0.0)

    def test_stiffness_hand_entries(self):
        # S[m, n] = integral L_n L_m' = 2 when n < m with odd m - n, else 0
        ref = reference_operators(4)
        assert ref.stiffness[1, 0] == pytest.approx(2.0, abs=1e-13)
        assert ref.stiffness[2, 1] == pytest.approx(2.0, abs=1e-13)
        assert ref.stiffness[3, 0] == pytest.approx(2.0, abs=1e-13)

    def test_stiffness_matches_quadrature_oracle(self):
        k = 5
        ref = reference_operators(k)
        rule = gauss_rule(k + 2)
        vals = legendre_table(k, rule.nodes)
        ders = legendre_deriv_table(k, rule.nodes)
        oracle = np.einsum("q,nq,mq->mn", rule.weights, vals, ders)
        np.testing.assert_allclose(ref.stiffness, oracle, atol=1e-13)

    def test_stiffness_sparsity_pattern(self):
        ref = reference_operators(6)
        m, n = np.indices(ref.stiffness.shape)
        zero_mask = (n >= m) | ((m - n) % 2 == 0)
        assert np.all(ref.stiffness[zero_mask] == 0.0)
        assert np.all(ref.stiffness[~zero_mask] == pytest.approx(2.0, abs=1e-13))

    def test_edge_vectors(self):
        ref = reference_operators(3)
        np.testing.assert_allclose(ref.edge_right, [1.0, 1.0, 1.0, 1.0], atol=0.0)
        np.testing.assert_allclose(ref.edge_left, [1.0, -1.0, 1.0, -1.0], atol=0.0)

    def test_operators_are_readonly(self):
        ref = reference_operators(2)
        with pytest.raises(ValueError):
            ref.stiffness[0, 0] = 1.0


def test_default_and_error_rules_are_generous():
    assert default_rule(2).nodes.size == 6
    assert error_rule(2).nodes.size == 8
