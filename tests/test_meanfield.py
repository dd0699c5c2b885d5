"""Tests for the axial field oracles: Laplacian, Poisson/Calabi-Yau solve,
mean-field Newton solver, free-energy functional, phi_N approximant.

The pair-kernel closed form is re-derived here against direct angular
quadrature (that's the oracle for everything downstream), and the
variational identities (Gateaux ~ 0 at the minimizer, dF/dbeta = energy)
are checked at the tolerances the solvers are supposed to guarantee.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kezeta.errors import (
    ConvergenceError,
    GridTooCoarseError,
    ValidationError,
)
from kezeta.meanfield import (
    C_LAP,
    _kernel_sums,
    _trapezoid_weights,
    AxialField,
    HarmonicCoeffs,
    bin_probabilities,
    density_from_function,
    free_energy_functional,
    interaction_energy,
    legendre_coeffs,
    pair_kernel,
    phi_n_approximant,
    poisson_residual,
    reduced_laplacian,
    relative_entropy,
    solve_mean_field,
    solve_poisson,
    uniform_density,
    uniform_grid,
)
from kezeta.stability import INFINITY, LogFanoCurve

TRIVIAL = LogFanoCurve.standard(())
W_HALF_NORTH = LogFanoCurve((INFINITY,), (0.5,))


# ---------------------------------------------------------------------------
# AxialField / HarmonicCoeffs plumbing
# ---------------------------------------------------------------------------


def test_density_must_normalize():
    g = uniform_grid(300)
    with pytest.raises(ValidationError):
        AxialField(g, np.full(g.size, 0.7), "Density")  # integrates to 1.4


def test_density_must_be_nonnegative():
    g = uniform_grid(300)
    vals = np.full(g.size, 0.5)
    vals[10] = -0.3
    vals[11] = 0.5 + 0.3  # keep the integral at 1
    with pytest.raises(ValidationError):
        AxialField(g, vals, "Density")


def test_field_validation_misc():
    g = uniform_grid(300)
    with pytest.raises(ValidationError):
        AxialField(g, np.zeros(g.size), "Banana")
    with pytest.raises(ValidationError):
        AxialField(g * 0.5, np.zeros(g.size), "Potential")  # wrong span
    with pytest.raises(ValidationError):
        AxialField(g, np.full(g.size, np.nan), "Potential")
    bad = g.copy()
    bad[5] += 1e-4  # non-uniform
    with pytest.raises(ValidationError):
        AxialField(bad, np.zeros(g.size), "Potential")


def test_uniform_density_is_half():
    u = uniform_density(400)
    assert np.all(u.values == 0.5)
    assert abs(u.integral() - 1.0) < 1e-14


def test_harmonic_coeffs_roundtrip():
    # project a known quadratic and read the coefficients back
    f = density_from_function(lambda t: 1.0 + 0.3 * t + 0.2 * (3 * t * t - 1) / 2, 400)
    c = legendre_coeffs(f, degree=8)
    # trapezoid-normalized density: mean 1/2 up to the trapezoid/GL gap O(h^2)
    assert abs(c.coeffs[0] - 0.5) < 1e-5
    assert abs(c.coeffs[1] / c.coeffs[0] - 0.3) < 1e-8
    assert abs(c.coeffs[2] / c.coeffs[0] - 0.2) < 1e-8
    # evaluate reproduces the grid values
    assert np.max(np.abs(c.evaluate(f.grid) - f.values)) < 1e-10


def test_harmonic_coeffs_validation():
    with pytest.raises(ValidationError):
        HarmonicCoeffs(np.array([]))
    with pytest.raises(ValidationError):
        HarmonicCoeffs(np.array([1.0, np.inf]))


# ---------------------------------------------------------------------------
# pair kernel: closed form re-derived against angular quadrature
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=-0.995, max_value=0.995),
    st.floats(min_value=-0.995, max_value=0.995),
)
def test_pair_kernel_matches_angular_average(t, s):
    # direct average of -log||x - y|| over the relative azimuth; right on the
    # diagonal the quadrature itself is log-singular at phi = 0, so step off it
    assume(abs(t - s) > 0.02)
    nodes, wts = np.polynomial.legendre.leggauss(800)
    phi = np.pi * (nodes + 1.0)
    rt, rs = math.sqrt(1 - t * t), math.sqrt(1 - s * s)
    d2 = (rt - rs * np.cos(phi)) ** 2 + (rs * np.sin(phi)) ** 2 + (t - s) ** 2
    direct = float(np.sum(-0.5 * np.log(d2) * np.pi * wts) / (2 * np.pi))
    assert abs(direct - float(pair_kernel(t, s))) < 1e-9


def test_pair_kernel_pole_row():
    # at t = 1 the kernel must be the exact log of the chordal distance
    s = np.linspace(-0.9, 0.9, 7)
    assert np.max(np.abs(pair_kernel(1.0, s) + 0.5 * np.log(2 - 2 * s))) < 1e-14


def _dense_kernel_sums(grid, s, w):
    # reference: the dense kernel with the corners t = s = +-1 set to their
    # half-cell average -(1/2)(log h - 1)
    k = pair_kernel(grid[:, None], s[None, :])
    corner = (grid[:, None] == s[None, :]) & (np.abs(s[None, :]) == 1.0)
    k[corner] = -0.5 * (math.log(grid[1] - grid[0]) - 1.0)
    return k @ w


@pytest.mark.parametrize("m", [200, 801])
def test_kernel_sums_match_dense_pair_kernel_on_grid(m):
    g = uniform_grid(m)
    for density in (np.ones_like, np.exp, lambda t: 1.0 + 0.9 * np.sin(3.0 * t)):
        w = _trapezoid_weights(g) * density(g)
        want = _dense_kernel_sums(g, g, w)
        assert np.max(np.abs(_kernel_sums(g, g, w) - want)) <= 1e-13 * np.max(np.abs(want))


def test_kernel_sums_match_dense_pair_kernel_at_draws():
    # off-grid draws plus some that sit exactly on interior grid nodes (ties)
    g = uniform_grid(400)
    s = np.sort(np.concatenate([np.random.default_rng(7).uniform(-1.0, 1.0, 3000), g[1:-1:50]]))
    w = np.ones(s.size)
    want = _dense_kernel_sums(g, s, w)
    assert np.max(np.abs(_kernel_sums(g, s, w) - want)) <= 1e-13 * np.max(np.abs(want))


def test_pair_kernel_symmetries():
    t = np.linspace(-0.97, 0.97, 23)
    k = pair_kernel(t[:, None], t[None, :])
    assert np.max(np.abs(k - k.T)) == 0.0  # transpose symmetry, exact
    flipped = pair_kernel(-t[::-1][:, None], -t[::-1][None, :])
    assert np.max(np.abs(k - flipped)) < 1e-15  # antipodal symmetry


# ---------------------------------------------------------------------------
# reduced Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_of_zero():
    phi = AxialField(uniform_grid(400), np.zeros(401), "Potential")
    out = reduced_laplacian(phi)
    assert out.kind == "DensityIncrement"
    assert np.all(out.values == 0.0)


def test_laplacian_p1_eigenfunction():
    g = uniform_grid(400)
    out = reduced_laplacian(AxialField(g, g.copy(), "Potential"))
    # L[P_1] = -2 P_1, so output = C_LAP * (-2 t) = -t/2; exact in the interior
    interior = slice(1, -1)
    assert np.max(np.abs(out.values[interior] + 0.5 * g[interior])) < 1e-10
    # boundary nodes are cell averages — first-order there
    h = 2.0 / 400
    assert abs(out.values[0] - 0.5) < h
    assert abs(out.values[-1] + 0.5) < h


def test_laplacian_p2_eigenvalue_ratio():
    g = uniform_grid(600)
    p2 = 0.5 * (3 * g * g - 1)
    out = reduced_laplacian(AxialField(g, p2, "Potential"))
    interior = slice(1, -1)
    mask = np.abs(p2[interior]) > 0.05
    ratio = out.values[interior][mask] / (C_LAP * p2[interior][mask])
    # eigenvalue -6 vs P_1's -2: ratio of raw eigenvalues is 3
    assert np.max(np.abs(ratio / (-2.0) - 3.0)) < 2e-3


def test_laplacian_grid_too_coarse():
    g = uniform_grid(150)
    with pytest.raises(GridTooCoarseError):
        reduced_laplacian(AxialField(g, np.zeros(g.size), "Potential"))


def test_laplacian_wants_potential():
    with pytest.raises(ValidationError):
        reduced_laplacian(uniform_density(400))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=2, max_size=6))
def test_laplacian_conserves_mass(coeffs):
    # flux form: trapezoid integral of L[phi] vanishes for any potential
    g = uniform_grid(300)
    phi = AxialField(g, np.polynomial.legendre.legval(g, coeffs), "Potential")
    out = reduced_laplacian(phi)
    assert abs(np.trapezoid(out.values, g)) < 1e-12


# ---------------------------------------------------------------------------
# Poisson solve
# ---------------------------------------------------------------------------


def test_poisson_uniform_gives_zero():
    phi = solve_poisson(uniform_density(800))
    assert np.max(np.abs(phi.values)) < 1e-12


def test_poisson_exp_residual_and_gauge():
    # fine grid so the trapezoid normalization of the target matches the
    # spectral one below the residual requirement
    f = density_from_function(np.exp, 8000)
    phi, coeffs = solve_poisson(f, return_coeffs=True)
    assert poisson_residual(coeffs, f) < 1e-8
    assert coeffs.coeffs[0] == 0.0                      # a_0 gauge, exact
    assert abs(np.trapezoid(phi.values, f.grid)) < 1e-8   # same thing on the grid


def test_poisson_two_resolutions_agree():
    m = 400
    a = solve_poisson(density_from_function(np.exp, m))
    b = solve_poisson(density_from_function(np.exp, 2 * m))
    assert np.max(np.abs(b.values[::2] - a.values)) < (2.0 / m) ** 2


def test_poisson_truncation_warning():
    # a very narrow bump is truncation-limited at the default degree
    f = density_from_function(lambda t: np.exp(-0.5 * ((t - 0.2) / 0.004) ** 2), 2000)
    with pytest.warns(UserWarning, match="truncation-limited"):
        solve_poisson(f)


def test_poisson_green_calibration():
    # the operative definition of C_LAP: the Green function of the calibrated
    # operator must be the axial average of the pair potential 2*green, i.e.
    # phi = -2*d_L*(K(., t0) - const) for a point source at t0 (d_L = 2)
    t0, sig = 0.3, 0.03
    f = density_from_function(lambda t: np.exp(-0.5 * ((t - t0) / sig) ** 2), 1600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # must be resolved, no tail warning
        phi = solve_poisson(f, degree=260)
    g = f.grid
    pred = -4.0 * pair_kernel(g, t0)
    pred -= np.trapezoid(pred, g) / 2.0  # same sigma-mean-zero gauge
    away = np.abs(g - t0) > 6 * sig
    assert np.max(np.abs(phi.values[away] - pred[away])) < 3e-3


def test_poisson_rejects_potential_input():
    g = uniform_grid(400)
    with pytest.raises(ValidationError):
        solve_poisson(AxialField(g, np.zeros(g.size), "Potential"))


# ---------------------------------------------------------------------------
# mean-field solver
# ---------------------------------------------------------------------------


def test_mean_field_trivial_is_uniform():
    for beta in (0.3, 1.0, 2.0):
        sol = solve_mean_field(TRIVIAL, beta)
        assert np.max(np.abs(sol.potential.values)) < 1e-12
        assert np.max(np.abs(sol.density.values - 0.5)) < 1e-12
        assert sol.residual < 1e-8


def test_mean_field_weighted_density_shape():
    sol = solve_mean_field(W_HALF_NORTH, 1.0)
    mu = sol.density
    assert sol.residual < 1e-8
    assert abs(mu.integral() - 1.0) < 1e-10
    # the weight at the north pole attracts mass: density increases in t
    assert np.all(np.diff(mu.values) > 0)
    assert mu.values[-1] > 5 * mu.values[0]


def test_mean_field_beta_zero_limit_matches_poisson():
    # at beta ~ 0 the fixed point equation linearizes to the Poisson equation
    m = 3200
    ref = density_from_function(np.exp, m)
    lin = solve_poisson(ref)
    sol = solve_mean_field(TRIVIAL, beta=1e-6, reference=ref, m=m)
    assert np.max(np.abs(sol.potential.values - lin.values)) < 1e-6


def test_mean_field_residual_is_a_real_residual():
    # recompute the fixed-point defect from the returned fields
    sol = solve_mean_field(W_HALF_NORTH, 1.0)
    coupling = 1.0 / (2.0 * W_HALF_NORTH.d_L)
    lap = reduced_laplacian(sol.potential, coupling=coupling)
    defect = 0.5 + lap.values - sol.density.values
    # density was renormalized after convergence, so allow a small multiple
    assert np.max(np.abs(defect)) < 1e-6


def test_mean_field_validation():
    with pytest.raises(ValidationError):
        solve_mean_field(TRIVIAL, beta=-0.9995)  # outside uniqueness regime
    with pytest.raises(ValidationError):
        # weight 1 at a pole: non-integrable reference
        solve_mean_field(LogFanoCurve((INFINITY,), (1.0,)), 1.0)
    with pytest.raises(ValidationError):
        # marked point off the symmetry axis
        solve_mean_field(LogFanoCurve((1.0 + 0j,), (0.5,)), 1.0)
    with pytest.raises(GridTooCoarseError):
        solve_mean_field(TRIVIAL, 1.0, m=100)
    with pytest.raises(ValidationError):
        # reference on the wrong grid
        solve_mean_field(TRIVIAL, 1.0, m=800, reference=uniform_density(400))


def test_mean_field_nonconvergence_raises():
    with pytest.raises(ConvergenceError):
        solve_mean_field(W_HALF_NORTH, 1.0, max_newton=2)


# ---------------------------------------------------------------------------
# energy / entropy / free energy
# ---------------------------------------------------------------------------


def test_uniform_energy_and_entropy_are_zero():
    u = uniform_density(800)
    assert abs(interaction_energy(u, TRIVIAL)) < 1e-5  # quadrature floor
    assert relative_entropy(u, TRIVIAL) == 0.0
    for beta in (0.2, 1.0, 3.0):
        assert abs(free_energy_functional(u, TRIVIAL, beta)) < 1e-5


def test_energy_kernel_symmetry():
    # K(t, s) = K(s, t), so the bilinear form interaction_energy sums is
    # symmetric: <f, K g> = <g, K f> for two different densities
    sol = solve_mean_field(W_HALF_NORTH, 1.0)
    g = sol.density.grid
    wq = _trapezoid_weights(g)
    wf1 = wq * sol.density.values
    wf2 = wq * density_from_function(lambda t: np.exp(1.5 * t) * (1.2 + np.sin(4.0 * t)), m=g.size - 1).values
    a = float(wf1 @ _kernel_sums(g, g, wf2))
    b = float(wf2 @ _kernel_sums(g, g, wf1))
    assert abs(a - b) <= 1e-13 * abs(a)


def test_energy_mirror_symmetry():
    # antipodal map is an isometry: mirrored density has the same energy
    g = uniform_grid(800)
    vals = 0.5 + 0.2 * np.sin(np.pi * g) + 0.1 * g
    vals /= np.trapezoid(vals, g)
    mu = AxialField(g, vals, "Density")
    mirrored = AxialField(g, vals[::-1].copy(), "Density")
    assert abs(interaction_energy(mu, TRIVIAL) - interaction_energy(mirrored, TRIVIAL)) < 1e-12


def test_entropy_infinite_when_not_absolutely_continuous():
    g = uniform_grid(400)
    half = np.where(g < 0.0, 1.0, 0.0)
    ref = AxialField(g, half / np.trapezoid(half, g), "Density")
    assert relative_entropy(uniform_density(400), TRIVIAL, ref) == math.inf
    assert free_energy_functional(uniform_density(400), TRIVIAL, 1.0, ref) == math.inf


def test_entropy_of_compact_support_density_is_finite():
    g = uniform_grid(400)
    tri = np.clip(1.0 - np.abs(g), 0.0, None)
    tri /= np.trapezoid(tri, g)
    ent = relative_entropy(AxialField(g, tri, "Density"), TRIVIAL)
    assert math.isfinite(ent) and ent > 0.0


def test_minimizer_beats_twenty_perturbations():
    beta = 1.0
    sol = solve_mean_field(W_HALF_NORTH, beta)
    g, mu = sol.density.grid, sol.density.values
    f_star = free_energy_functional(sol.density, W_HALF_NORTH, beta)
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = rng.normal(size=7) * 0.08
        c[0] = 0.0
        bump = np.polynomial.legendre.legval(g, c)
        cand = np.clip(mu * (1.0 + bump), 0.0, None)
        cand /= np.trapezoid(cand, g)
        f_cand = free_energy_functional(AxialField(g, cand, "Density"), W_HALF_NORTH, beta)
        assert f_cand > f_star


def test_minimizer_gateaux_derivative_vanishes():
    # numeric first variation along 10 random mass-preserving directions
    beta, m = 1.0, 1600
    sol = solve_mean_field(W_HALF_NORTH, beta, m=m)
    g, mu = sol.density.grid, sol.density.values
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = rng.normal(size=6)
        c[0] = 0.0
        v = np.polynomial.legendre.legval(g, c)
        v -= 0.5 * np.trapezoid(v, g)   # zero total mass
        v /= np.max(np.abs(v))          # unit sup norm
        eps = 1e-4
        up = np.clip(mu + eps * v, 0.0, None)
        dn = np.clip(mu - eps * v, 0.0, None)
        f_up = free_energy_functional(
            AxialField(g, up / np.trapezoid(up, g), "Density"), W_HALF_NORTH, beta
        )
        f_dn = free_energy_functional(
            AxialField(g, dn / np.trapezoid(dn, g), "Density"), W_HALF_NORTH, beta
        )
        assert abs(f_up - f_dn) / (2 * eps) < 1e-5


def test_free_energy_derivative_is_mean_energy():
    # envelope identity: d/dbeta of F_beta(mu_beta) = E(mu_beta)
    db = 1e-2

    def f_star(curve, b, reference=None):
        s = solve_mean_field(curve, b, reference=reference)
        return free_energy_functional(s.density, curve, b, reference)

    # weighted instance
    fd = (f_star(W_HALF_NORTH, 1.0 + db) - f_star(W_HALF_NORTH, 1.0 - db)) / (2 * db)
    e_at = interaction_energy(solve_mean_field(W_HALF_NORTH, 1.0).density, W_HALF_NORTH)
    assert abs(fd - e_at) < 1e-4
    # smooth-reference instance on the trivial curve
    ref = density_from_function(np.exp, 800)
    fd2 = (f_star(TRIVIAL, 1.0 + db, ref) - f_star(TRIVIAL, 1.0 - db, ref)) / (2 * db)
    e2 = interaction_energy(solve_mean_field(TRIVIAL, 1.0, reference=ref).density, TRIVIAL)
    assert abs(fd2 - e2) < 1e-4


# ---------------------------------------------------------------------------
# phi_N approximant
# ---------------------------------------------------------------------------


def test_phi_n_uniform_target_is_zero():
    # Green mean-value property: the potential of the uniform measure is
    # constant, and the gauge removes the constant
    p = phi_n_approximant(uniform_density(800), 4)
    assert np.max(np.abs(p.values)) < 5e-4


def test_phi_n_quadrature_is_n_independent():
    f = density_from_function(np.exp, 800)
    p3 = phi_n_approximant(f, 3)
    p8 = phi_n_approximant(f, 8)
    assert np.max(np.abs(p3.values - p8.values)) < 1e-10


def test_phi_n_matches_poisson():
    f = density_from_function(np.exp, 800)
    p = phi_n_approximant(f, 3)
    phi = solve_poisson(f)
    # align gauges: poisson is sigma-mean-zero, phi_N is dV-mean-zero
    h = f.spacing
    wq = np.full(f.grid.size, h)
    wq[0] = wq[-1] = h / 2
    aligned = phi.values - float(np.sum(wq * f.values * phi.values))
    assert np.max(np.abs(p.values - aligned)) < 1e-3


def test_phi_n_montecarlo_mode():
    f = density_from_function(np.exp, 400)
    pq = phi_n_approximant(f, 3)
    pm = phi_n_approximant(f, 3, mode="montecarlo", samples=20000, seed=3)
    pm2 = phi_n_approximant(f, 3, mode="montecarlo", samples=20000, seed=3)
    assert np.array_equal(pm.values, pm2.values)  # substream determinism
    assert np.max(np.abs(pm.values - pq.values)) < 0.05
    # dV-mean-zero gauge holds for the empirical version too
    h = f.spacing
    wq = np.full(f.grid.size, h)
    wq[0] = wq[-1] = h / 2
    assert abs(float(np.sum(wq * f.values * pm.values))) < 1e-12


def test_phi_n_validation():
    f = density_from_function(np.exp, 400)
    with pytest.raises(ValidationError):
        phi_n_approximant(f, 1)
    with pytest.raises(ValidationError):
        phi_n_approximant(f, 4, mode="exact")
    g = uniform_grid(400)
    with pytest.raises(ValidationError):
        phi_n_approximant(AxialField(g, np.zeros(g.size), "Potential"), 4)


# ---------------------------------------------------------------------------
# bin probabilities (for histogram comparisons)
# ---------------------------------------------------------------------------


def test_bin_probabilities_uniform():
    edges = np.linspace(-1, 1, 11)
    p = bin_probabilities(uniform_density(800), edges)
    assert np.max(np.abs(p - 0.1)) < 1e-12
    assert abs(p.sum() - 1.0) < 1e-12


def test_bin_probabilities_weighted_mass_near_pole():
    sol = solve_mean_field(W_HALF_NORTH, 1.0)
    edges = np.linspace(-1, 1, 41)
    p = bin_probabilities(sol.density, edges)
    assert abs(p.sum() - 1.0) < 1e-9
    assert p[-1] > p[0]  # mass piles up at the weighted pole


def test_bin_probabilities_validation():
    with pytest.raises(ValidationError):
        bin_probabilities(uniform_density(400), np.array([0.5, 0.5]))
    g = uniform_grid(400)
    with pytest.raises(ValidationError):
        bin_probabilities(AxialField(g, np.zeros(g.size), "Potential"), np.linspace(-1, 1, 5))


if __name__ == "__main__":
    # quick visual: weighted mean-field density vs uniform
    sol = solve_mean_field(W_HALF_NORTH, 1.0)
    g, mu = sol.density.grid, sol.density.values
    for t in (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0):
        k = int(round((t + 1) / sol.density.spacing))
        print(f"t = {t:+.1f}   mu = {mu[k]:.4f}")
    print("F =", free_energy_functional(sol.density, W_HALF_NORTH, 1.0))
