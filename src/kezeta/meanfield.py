"""Axially symmetric field oracles on the round sphere.

Everything here lives on a uniform latitude grid t in [-1, 1] (t = height
coordinate; the round area measure sigma pushes forward to dt/2).  Densities
are carried with respect to dt, so "normalized" means trapezoid integral 1
and the uniform measure is the constant 1/2.

The reduced Laplacian on axial functions is

    L[phi](t) = d/dt [ (1 - t^2) dphi/dt ],

with Legendre polynomials as eigenfunctions, L[P_l] = -l(l+1) P_l.  A
potential phi deposits density

    mu = 1/2 + c * L[phi],      c = 1 / (2 * d_L),

where d_L is the anti-log-canonical degree of the curve (c = C_LAP = 1/4 for
the trivial curve, d_L = 2).  The constant is pinned by the Green-function
calibration: solving the Poisson equation for a narrow bump at t0 must
reproduce the axial average of the pair potential -2*d_L*log(chordal),
which has the closed form (verified against angular quadrature to 7e-14)

    K(t, s) = avg_angle[ -log ||x - y|| ] = -(1/2) log(1 - t*s + |t - s|).

Since 1 - t*s + |t - s| = (1 + max(t, s)) (1 - min(t, s)), K is
-(1/2)[log(1 + max) + log(1 - min)], and a sum of K over sorted points
splits into prefix and suffix sums: no m x m kernel matrix is needed.

The mean-field equation solved here is the axial Gibbs fixed point

    1/2 + c L[phi] = exp(beta*phi) * rho_ref / Z(phi),

discretized in flux (finite-volume) form so that the discrete L has zero
column sums against the trapezoid weights.  L is one tridiagonal matrix,
_laplacian_bands: reduced_laplacian applies it, and Newton's method on the
bordered system (phi, log Z) applies and inverts it.

One numpy solver, _solve_tridiagonal (cyclic reduction over strided slices,
O(m) with no Python loop over grid nodes), inverts every tridiagonal system
here: the Newton step's, both right-hand sides at once, and the spline's
that resamples a field onto Gauss-Legendre nodes in legendre_coeffs.  That
spline is the not-a-knot cubic: its third derivative is continuous across
the second and the last-but-one nodes, and these two end conditions are
eliminated into their neighbouring rows, so its system is tridiagonal too.

Free energy of a density mu at inverse temperature beta:

    F[mu] = beta * E[mu] + Ent(mu | ref),
    E[mu] = d_L * Int K(t,s) mu(t) mu(s) dt ds  -  d_L*(1/2 - log 2),

the subtraction making E[uniform] = 0: the double integral of K against the
uniform density 1/2 is 1/2 - log 2, the mean of -log ||x - y|| over
independent uniform pairs.  Ent is relative entropy against
the weighted reference measure of the curve; +inf when mu is not a
nonnegative density.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    GridTooCoarseError,
    ValidationError,
)
from .stability import INFINITY, LogFanoCurve

# Laplacian-to-density constant for the trivial curve (d_L = 2); the general
# coupling is 1/(2 d_L).  Do not tune: the Green calibration test pins it.
C_LAP = 0.25

# uniform-ensemble mean of -log||x - y|| (both points uniform on the sphere)
UNIFORM_PAIR_ENERGY = 0.5 - math.log(2.0)

_FIELD_KINDS = ("Potential", "Density", "DensityIncrement")
_MIN_GRID_CELLS = 200
_DENSITY_TOL = 1e-10
_TAIL_K = 5  # HarmonicCoeffs.tail_mass reads this many trailing coefficients
_NEWTON_TOL = 1e-8  # sup-norm residual (and gauge) at which the Newton solve stops
_MAX_NEWTON = 50
# Size caps, refused before anything is allocated.  On a 2-core machine the
# Newton solve (w = 1/2 at the north pole) already stalls at _NEWTON_TOL from
# 25,600 cells at beta = -1/2 and 40,000 at beta = 1, and solve_poisson takes
# 0.6-1.9 s and 144 MiB at degree 1,000.
_MAX_GRID_CELLS = 65_536
_MAX_DEGREE = 1_000


@dataclass(frozen=True)
class AxialField:
    """Axial function sampled on a uniform grid over [-1, 1].

    kind is one of "Potential", "Density", "DensityIncrement".  Density
    fields must be nonnegative and integrate to 1 (trapezoid, 1e-10);
    increments must integrate to ~0 only in exact arithmetic, so no check.
    """

    grid: np.ndarray
    values: np.ndarray
    kind: str = "Potential"

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.kind not in _FIELD_KINDS:
            raise ValidationError(
                f"unknown field kind {self.kind!r}; expected one of {_FIELD_KINDS}"
            )
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("grid must be a 1-d array with at least 2 nodes")
        if values.shape != grid.shape:
            raise ValidationError("values and grid shapes differ")
        if abs(grid[0] + 1.0) > 1e-12 or abs(grid[-1] - 1.0) > 1e-12:
            raise ValidationError("grid must span [-1, 1]")
        h = np.diff(grid)
        if np.any(h <= 0) or abs(h.max() - h.min()) > 1e-12:
            raise ValidationError("grid must be uniform and increasing")
        if not np.all(np.isfinite(values)):
            raise ValidationError("field values must be finite")
        if self.kind == "Density":
            if np.any(values < -1e-12):
                raise ValidationError("Density values must be nonnegative")
            total = np.trapezoid(values, grid)
            if abs(total - 1.0) > _DENSITY_TOL:
                raise ValidationError(
                    f"Density must integrate to 1 (trapezoid); got {total!r}"
                )

    @property
    def m(self) -> int:
        """Number of grid cells (nodes minus one)."""
        return self.grid.size - 1

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def uniform_grid(m: int) -> np.ndarray:
    if m < 1:
        raise ValidationError(f"grid needs at least 1 cell; got m = {m}")
    if m > _MAX_GRID_CELLS:
        raise ValidationError(f"grid takes at most {_MAX_GRID_CELLS} cells; got m = {m}")
    return np.linspace(-1.0, 1.0, m + 1)


def uniform_density(m: int = 800) -> AxialField:
    g = uniform_grid(m)
    return AxialField(g, np.full(g.size, 0.5), "Density")


def density_from_function(fn, m: int = 800) -> AxialField:
    """Normalize fn >= 0 on the grid into a Density field.  A value or total
    that is not finite (fn overflowed) is refused, without numpy warnings."""
    g = uniform_grid(m)
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(g), dtype=float)
        total = np.trapezoid(vals, g)
    if not (np.all(np.isfinite(vals)) and np.isfinite(total)):
        raise ValidationError("density function values and their integral must be finite")
    if np.any(vals < 0):
        raise ValidationError("density function must be nonnegative")
    if total <= 0:
        raise ValidationError("density function integrates to zero")
    return AxialField(g, vals / total, "Density")


def pair_kernel(t, s):
    """Axial average of -log||x - y||, x at latitude t, y at latitude s.

    Closed form -(1/2) log(1 - t s + |t - s|).  Logarithmic singularities
    only at the corners t = s = +-1.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    arg = 1.0 - t * s + np.abs(t - s)
    with np.errstate(divide="ignore"):
        return -0.5 * np.log(arg)


# ---------------------------------------------------------------------------
# Legendre spectral side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Legendre coefficients a_l, f(t) = sum a_l P_l(t).

    Solutions of the Poisson problem are gauged so a_0 = 0 (sigma-mean zero,
    which on [-1,1] with dt is the same as mean zero).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("coefficient array must be 1-d and nonempty")
        if not np.all(np.isfinite(c)):
            raise ValidationError("coefficients must be finite")

    def evaluate(self, t) -> np.ndarray:
        return np.polynomial.legendre.legval(np.asarray(t, dtype=float), self.coeffs)

    def tail_mass(self) -> float:
        """Max |a_l| over the last _TAIL_K coefficients — truncation diagnostic."""
        return float(np.max(np.abs(self.coeffs[-_TAIL_K:])))


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve the tridiagonal system lower[i] x[i-1] + diag[i] x[i] +
    upper[i] x[i+1] = rhs[i] (lower[0] and upper[-1] are not read) by cyclic
    reduction (Hockney, J. ACM 12 (1965) 95-113).

    The system is padded with identity rows to 2^p - 1 equations.  Each level
    eliminates the even-indexed unknowns from the odd-indexed equations with
    strided slices, halving the system; back substitution then recovers the
    even-indexed unknowns level by level.  O(n) work in about 2 log2(n)
    vectorised steps, and no pivoting, so it is meant for the diagonally
    dominant or near-dominant systems of this module.  rhs may be (n,) or
    (n, k): the k columns are solved at once.  Returns None, before dividing,
    when a pivot is exactly zero.
    """
    n = diag.size
    size = (1 << n.bit_length()) - 1  # smallest 2^p - 1 >= n
    # coefficients as (size, 1) columns, so that they broadcast over rhs columns
    a = np.zeros((size, 1))
    b = np.ones((size, 1))
    c = np.zeros((size, 1))
    a[1:n, 0] = lower[1:n]
    b[:n, 0] = diag
    c[: n - 1, 0] = upper[: n - 1]
    d = np.zeros((size,) + rhs.shape[1:])
    d[:n] = rhs
    if d.ndim == 1:
        d = d[:, None]
    levels = []
    while size > 1:
        pivots = b[::2]
        if not pivots.all():
            return None
        alpha = -a[1::2] / pivots[:-1]
        gamma = -c[1::2] / pivots[1:]
        levels.append((a, b, c, d))
        a, b, c, d = (
            alpha * a[:-1:2],
            b[1::2] + alpha * c[:-1:2] + gamma * a[2::2],
            gamma * c[2::2],
            d[1::2] + alpha * d[:-1:2] + gamma * d[2::2],
        )
        size //= 2
    if b[0, 0] == 0.0:
        return None
    x = d / b
    for a, b, c, d in reversed(levels):
        full = np.empty_like(d)
        full[1::2] = x
        even = d[::2].copy()
        even[1:] -= a[2::2] * x
        even[:-1] -= c[:-1:2] * x
        full[::2] = even / b[::2]
        x = full
    return x[:n].reshape(rhs.shape)


def _not_a_knot_spline(grid: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through (grid, values), a uniform grid of
    nodes 0..m, evaluated at x.

    The unknowns are the second derivatives M_i at the nodes.  Continuity of
    the first derivative gives M_{i-1} + 4 M_i + M_{i+1} = 6 (y_{i-1} - 2 y_i
    + y_{i+1}) / h^2 at the interior nodes, and not-a-knot, a third
    derivative that is continuous across nodes 1 and m - 1, gives
    M_0 = 2 M_1 - M_2 and M_m = 2 M_{m-1} - M_{m-2}.  Putting those two end
    rows into their neighbours leaves 6 M_1 and 6 M_{m-1} on the diagonal,
    so the interior M solve as one tridiagonal system.  With fewer than 4
    nodes the spline is the interpolating polynomial.
    """
    n = grid.size
    if n < 4:
        return np.polyval(np.polyfit(grid, values, n - 1), x)
    h = (grid[-1] - grid[0]) / (n - 1)
    rhs = 6.0 * (values[:-2] - 2.0 * values[1:-1] + values[2:]) / (h * h)
    lower, upper = np.ones(n - 2), np.ones(n - 2)
    lower[-1] = upper[0] = 0.0
    diag = np.full(n - 2, 4.0)
    diag[0] = diag[-1] = 6.0
    inner = _solve_tridiagonal(lower, diag, upper, rhs)
    moments = np.concatenate(
        ([2.0 * inner[0] - inner[1]], inner, [2.0 * inner[-1] - inner[-2]])
    )
    k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, n - 2)
    right = x - grid[k]
    left = grid[k + 1] - x
    m0, m1 = moments[k], moments[k + 1]
    return (
        (m0 * left**3 + m1 * right**3) / (6.0 * h)
        + (values[k] / h - m0 * h / 6.0) * left
        + (values[k + 1] / h - m1 * h / 6.0) * right
    )


def legendre_coeffs(field: AxialField, degree: int = 120) -> HarmonicCoeffs:
    """Project an axial field onto P_0..P_degree.

    Gauss-Legendre quadrature of the projection integrals; the field is
    resampled onto the quadrature nodes with a not-a-knot cubic spline (the
    grids we use are fine enough that the spline error is below the spectral
    tail).  Needs 1 <= degree <= _MAX_DEGREE: below 1 there is no mode a
    Poisson solve can use.
    """
    if not 1 <= degree <= _MAX_DEGREE:
        raise ValidationError(f"Legendre degree must be in 1..{_MAX_DEGREE}; got {degree}")
    nodes, wts = np.polynomial.legendre.leggauss(max(2 * degree + 2, 64))
    f = _not_a_knot_spline(field.grid, field.values, nodes)
    coeffs = np.empty(degree + 1)
    # recurrence for P_l at the nodes, accumulate sum w f P_l * (2l+1)/2
    p_prev = np.ones_like(nodes)
    p_cur = nodes.copy()
    coeffs[0] = 0.5 * np.sum(wts * f)
    coeffs[1] = 1.5 * np.sum(wts * f * p_cur)
    for ell in range(2, degree + 1):
        p_next = ((2 * ell - 1) * nodes * p_cur - (ell - 1) * p_prev) / ell
        coeffs[ell] = (2 * ell + 1) / 2.0 * np.sum(wts * f * p_next)
        p_prev, p_cur = p_cur, p_next
    return HarmonicCoeffs(coeffs)


def solve_poisson(
    target: AxialField, degree: int = 120
) -> tuple[AxialField, HarmonicCoeffs]:
    """Solve 1/2 + C_LAP * L[phi] = target for phi, sigma-mean-zero gauge.

    Spectral: if target - 1/2 = sum_{l>=1} b_l P_l then
    phi = sum_{l>=1} -b_l / (C_LAP * l(l+1)) P_l and a_0 = 0.  C_LAP is
    read at call time, so a tampered calibration reaches criterion 11.
    Warns when the Legendre tail of the target has not decayed below 1e-8
    (the answer is then truncation-limited; raise the degree).  Returns the
    potential on the target's grid and its Legendre coefficients.
    """
    if target.kind != "Density":
        raise ValidationError("solve_poisson expects a Density field")
    b = legendre_coeffs(target, degree)
    ell = np.arange(degree + 1, dtype=float)
    a = np.zeros(degree + 1)
    a[1:] = -b.coeffs[1:] / (C_LAP * ell[1:] * (ell[1:] + 1.0))
    if b.tail_mass() > 1e-8:
        warnings.warn(
            f"Legendre tail of the source is {b.tail_mass():.2e} at degree "
            f"{degree}: the Poisson solve is truncation-limited",
            stacklevel=2,
        )
    coeffs = HarmonicCoeffs(a)
    phi = AxialField(target.grid, coeffs.evaluate(target.grid), "Potential")
    return phi, coeffs


def poisson_residual(coeffs: HarmonicCoeffs, target: AxialField) -> float:
    """Sup-norm residual of 1/2 + C_LAP * L[phi] = target for a spectral phi.

    The Laplacian is applied exactly on the Legendre ansatz
    (L[P_l] = -l(l+1) P_l), so this measures only the truncation error of
    the source, not finite-difference error.
    """
    ell = np.arange(coeffs.coeffs.size, dtype=float)
    lap_coeffs = -ell * (ell + 1.0) * coeffs.coeffs
    lap_vals = np.polynomial.legendre.legval(target.grid, lap_coeffs)
    return float(np.max(np.abs(0.5 + C_LAP * lap_vals - target.values)))


# ---------------------------------------------------------------------------
# finite-volume reduced Laplacian (flux form)
# ---------------------------------------------------------------------------


def _laplacian_bands(grid: np.ndarray, coupling: float):
    """Tridiagonal bands (lower, diag, upper) of coupling * L in flux form.

    The conductivity coupling * (1 - t^2) / h^2 sits at the cell interfaces.
    Cell widths are h for interior nodes and h/2 for the two boundary nodes,
    so the columns sum to zero against the trapezoid weights: the operator
    conserves mass.
    """
    h = grid[1] - grid[0]
    mid = 0.5 * (grid[:-1] + grid[1:])
    a = coupling * (1.0 - mid * mid) / (h * h)
    # an interior row couples to both neighbours; a boundary row (a cell of
    # width h/2) couples twice as strongly to its one neighbour
    lower = np.concatenate(([0.0], a[:-1], [2.0 * a[-1]]))
    upper = np.concatenate(([2.0 * a[0]], a[1:], [0.0]))
    return lower, -(lower + upper), upper


def _apply_bands(bands, x: np.ndarray) -> np.ndarray:
    """Product of the tridiagonal matrix (lower, diag, upper) with x."""
    lower, diag, upper = bands
    out = np.empty_like(x)
    out[0] = diag[0] * x[0] + upper[0] * x[1]
    out[1:-1] = lower[1:-1] * x[:-2] + diag[1:-1] * x[1:-1] + upper[1:-1] * x[2:]
    out[-1] = lower[-1] * x[-2] + diag[-1] * x[-1]
    return out


def reduced_laplacian(phi: AxialField, coupling: float = C_LAP) -> AxialField:
    """coupling * d/dt[(1 - t^2) phi'] in conservative finite-volume form.

    The matrix is _laplacian_bands, the one solve_mean_field inverts.  Needs
    at least 200 cells: below that the boundary cells poison the interior.
    """
    if phi.kind != "Potential":
        raise ValidationError("reduced_laplacian expects a Potential field")
    if phi.m < _MIN_GRID_CELLS:
        raise GridTooCoarseError(
            f"grid has {phi.m} cells; need at least {_MIN_GRID_CELLS}"
        )
    out = _apply_bands(_laplacian_bands(phi.grid, coupling), phi.values)
    return AxialField(phi.grid, out, "DensityIncrement")


# ---------------------------------------------------------------------------
# reference measures
# ---------------------------------------------------------------------------


def axial_pole_weights(curve: LogFanoCurve) -> tuple:
    """(w_south, w_north) for a curve whose marked points all sit at poles.

    The stereographic chart sends 0 to the south pole and infinity to the
    north pole; anything else is off-axis and rejected here.
    """
    w_south = 0.0
    w_north = 0.0
    for p, w in zip(curve.marked_points, curve.weights):
        if p is INFINITY:
            w_north += w
        elif p == 0:
            w_south += w
        else:
            raise ValidationError(
                f"marked point {p!r} is not on the symmetry axis; the axial "
                "oracles need all marked points at the poles"
            )
    return w_south, w_north


def _log_reference(curve: LogFanoCurve, grid: np.ndarray) -> np.ndarray:
    """log of the normalized reference density rho_ref wrt dt.

    rho_ref(t) is proportional to (2-2t)^{-w_n} (2+2t)^{-w_s} (chordal
    distances to the poles, squared, to the weight power).  A singular
    endpoint node carries the exact cell average of the value over its
    half-cell: avg of u^{-w} over u in (0, h] is h^{-w}/(1-w).  With the
    trapezoid weights (h/2 at the ends) this makes the discrete mass of the
    boundary cell exactly the continuum one, so trapezoid integrals of the
    reference — and of Gibbs densities built on it — are second-order
    accurate despite the singularity.  Normalization is the closed-form
    Beta integral.
    """
    w_s, w_n = axial_pole_weights(curve)
    if w_s >= 1.0 or w_n >= 1.0:
        raise ValidationError(
            f"pole weights ({w_s}, {w_n}) must be < 1 for an integrable reference"
        )
    h = grid[1] - grid[0]
    log_rho = np.zeros_like(grid)
    if w_n != 0.0:
        north = 2.0 - 2.0 * grid
        log_rho[:-1] -= w_n * np.log(north[:-1])
        log_rho[-1] -= w_n * math.log(h) + math.log1p(-w_n)
    if w_s != 0.0:
        south = 2.0 + 2.0 * grid
        log_rho[1:] -= w_s * np.log(south[1:])
        log_rho[0] -= w_s * math.log(h) + math.log1p(-w_s)
    # normalization: Int (2-2t)^{-wn} (2+2t)^{-ws} dt   (sub t = 2u - 1)
    #   = 2^{1-2wn-2ws} * Gamma(1-wn) Gamma(1-ws) / Gamma(2-wn-ws)
    log_norm = (
        (1.0 - 2.0 * w_n - 2.0 * w_s) * math.log(2.0)
        + math.lgamma(1.0 - w_n)
        + math.lgamma(1.0 - w_s)
        - math.lgamma(2.0 - w_n - w_s)
    )
    return log_rho - log_norm


# ---------------------------------------------------------------------------
# mean-field Newton solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanFieldSolution:
    potential: AxialField
    density: AxialField
    residual: float
    iterations: int
    log_partition: float


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    w = np.full(grid.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def solve_mean_field(curve: LogFanoCurve, beta: float, m: int = 800) -> MeanFieldSolution:
    """Newton solve of the axial mean-field equation

        1/2 + (1/(2 d_L)) L[phi] = exp(beta phi) rho_ref / Z,

    gauge Int phi dt = 0.  Valid for beta > -1 + 1e-3 (uniqueness regime)
    and pole weights < 1.  Raises ConvergenceError if the sup-norm residual
    is still above _NEWTON_TOL after _MAX_NEWTON steps.
    """
    if beta <= -1.0 + 1e-3:
        raise ValidationError(
            f"beta = {beta} outside the mean-field uniqueness regime (> -0.999)"
        )
    if m < _MIN_GRID_CELLS:
        raise GridTooCoarseError(f"m = {m} cells; need at least {_MIN_GRID_CELLS}")
    grid = uniform_grid(m)
    log_ref = _log_reference(curve, grid)
    coupling = 1.0 / (2.0 * curve.d_L)
    wq = _trapezoid_weights(grid)
    lap = _laplacian_bands(grid, coupling)
    lower, diag, upper = lap

    def defect(phi, loz):
        """The Gibbs density at (phi, log Z), the fixed-point defect and the
        gauge defect."""
        rho = np.exp(beta * phi + log_ref - loz)
        return rho, 0.5 + _apply_bands(lap, phi) - rho, float(np.sum(wq * phi))

    phi = np.zeros(grid.size)
    loz = math.log(float(np.sum(wq * np.exp(log_ref))))  # log Z at phi = 0
    residual = np.inf
    for iteration in range(1, _MAX_NEWTON + 1):
        rho, g_res, gauge_res = defect(phi, loz)
        residual = float(np.max(np.abs(g_res)))
        if residual < _NEWTON_TOL and abs(gauge_res) < _NEWTON_TOL:
            break
        # bordered Newton system in (phi, log Z):
        #   [T  rho] [dphi] = [-G]        T = Lap - beta diag(rho)
        #   [wq   0] [dloz]   [-gauge]
        t_diag = diag - beta * rho
        rhs = np.stack([-g_res, -rho], axis=-1)
        sol = _solve_tridiagonal(lower, t_diag, upper, rhs)
        if sol is None:
            # a zero pivot: nudge the diagonal and retry once; only relevant
            # deep in beta < 0
            sol = _solve_tridiagonal(lower, t_diag - 1e-9, upper, rhs)
        if sol is None:
            raise ConvergenceError("Newton matrix has a zero pivot")
        a_vec, b_vec = sol.T
        denom = float(np.sum(wq * b_vec))
        if abs(denom) < 1e-300 or not np.isfinite(denom):
            raise ConvergenceError("bordered Newton system is singular")
        dloz = (-gauge_res - float(np.sum(wq * a_vec))) / denom
        dphi = a_vec + dloz * b_vec
        # damped update: halve until the residual does not blow up
        step = 1.0
        base = residual + abs(gauge_res)
        for _ in range(25):
            cand_phi = phi + step * dphi
            _, cand_res, cand_gauge = defect(cand_phi, loz + step * dloz)
            cand = float(np.max(np.abs(cand_res))) + abs(cand_gauge)
            if np.isfinite(cand) and cand < base:
                break
            step *= 0.5
        phi = phi + step * dphi
        loz = loz + step * dloz
    else:
        raise ConvergenceError(
            f"mean-field Newton stalled at residual {residual:.3e} after "
            f"{_MAX_NEWTON} steps (beta = {beta})"
        )
    # rho is the density at the converged (phi, loz)
    rho = rho / float(np.trapezoid(rho, grid))  # exact renormalization (< 1e-12 shift)
    return MeanFieldSolution(
        potential=AxialField(grid, phi, "Potential"),
        density=AxialField(grid, rho, "Density"),
        residual=residual,
        iterations=iteration,
        log_partition=loz,
    )


# ---------------------------------------------------------------------------
# energy / entropy / free energy of a density
# ---------------------------------------------------------------------------


def _kernel_sums(grid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j K(t_i, t_j) at every grid node t_i.

    Prefix sums over j < i plus suffix sums over j >= i (module docstring).
    At the corners t = s = +-1 the zero factor's log is its average over the
    end half-cell, log(h/2) - 1, as in _log_reference: the corner carries
    -(1/2)(log h - 1), the half-cell average of K along the edge row, and the
    h/2 trapezoid end weight integrates that cell exactly.
    """
    end = math.log(0.5 * (grid[1] - grid[0])) - 1.0
    with np.errstate(divide="ignore"):
        lp, lm = np.log1p(grid), np.log1p(-grid)
    lp[grid == -1.0] = end
    lm[grid == 1.0] = end
    # extended precision: a float64 cumsum drifts by ~1e-12 at m = 6400
    cw, clm, clp = (
        np.concatenate(([0.0], np.cumsum(x, dtype=np.longdouble)))
        for x in (w, w * lm, w * lp)
    )
    # with the leading 0, entry i of each cumsum sums j < i
    total = cw[:-1] * lp + clm[:-1] + (clp[-1] - clp[:-1]) + (cw[-1] - cw[:-1]) * lm
    return -0.5 * total.astype(float)


def interaction_energy(mu: AxialField, curve: LogFanoCurve) -> float:
    """d_L * Int K mu mu - d_L*(1/2 - log 2); zero for the uniform density.

    Tensor-trapezoid sum of K against mu plus the closed-form correction
    for the |t-s| kink along the diagonal: on a cell [t_k, t_k + h]^2 the
    trapezoid overestimates Int |t-s| by h^3/6, and locally
    K = smooth - |t-s| / (2 (1 - t s)) + O((t-s)^2), so each diagonal cell
    gets + h^3 mu_k^2 / (12 (1 - u_k^2)), u_k the cell midpoint.
    """
    if mu.kind != "Density":
        raise ValidationError("interaction_energy expects a Density field")
    g = mu.grid
    wf = _trapezoid_weights(g) * mu.values
    double = float(wf @ _kernel_sums(g, wf))
    # diagonal kink correction (skip the two corner cells where 1-u^2 ~ 0
    # and the log model breaks; their weight is O(h^2 log h))
    h = mu.spacing
    u = 0.5 * (g[:-1] + g[1:])
    fmid = 0.5 * (mu.values[:-1] + mu.values[1:])
    inner = slice(1, -1)
    corr = np.sum(h**3 * fmid[inner] ** 2 / (12.0 * (1.0 - u[inner] ** 2)))
    return curve.d_L * (double + float(corr) - UNIFORM_PAIR_ENERGY)


def relative_entropy(mu: AxialField, curve: LogFanoCurve) -> float:
    """Ent(mu | rho_ref) against the curve's weighted measure, +inf if mu is
    negative anywhere.  Computed as Int mu log(mu / rho_ref) dt with the
    same endpoint cell-averaged rho_ref as the solver, so the singular parts
    cancel exactly for densities with the reference's pole behavior.
    """
    if mu.kind != "Density":
        raise ValidationError("relative_entropy expects a Density field")
    vals = mu.values
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        return math.inf
    log_ref = _log_reference(curve, mu.grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(vals > 0.0, vals * (np.log(vals) - log_ref), 0.0)
    return float(np.trapezoid(integrand, mu.grid))


def free_energy_functional(mu: AxialField, curve: LogFanoCurve, beta: float) -> float:
    """beta * E[mu] + Ent(mu | rho_ref); the mean-field solution minimizes this."""
    ent = relative_entropy(mu, curve)
    if math.isinf(ent):
        return math.inf
    return beta * interaction_energy(mu, curve) + ent


# ---------------------------------------------------------------------------
# Calabi-Yau potential approximant (trivial curve)
# ---------------------------------------------------------------------------


def phi_n_approximant(target: AxialField) -> AxialField:
    """Potential whose Gibbs ensemble at large N concentrates on `target`.

    For the trivial curve the N-point construction yields, in the mean-field
    limit, phi(t) = -2 d_L Int K(t, s) f(s) ds + const (d_L = 2), gauged so
    Int phi f dt = 0.  The closed-form kernel is integrated by trapezoid
    quadrature, the N -> infinity limit of the N-point empirical average, so
    no point count enters.
    """
    if target.kind != "Density":
        raise ValidationError("phi_n_approximant expects a Density target")
    g = target.grid
    d_l = 2.0  # trivial curve
    wq = _trapezoid_weights(g)
    phi = -2.0 * d_l * _kernel_sums(g, wq * target.values)
    # gauge: mean zero against the target measure
    phi = phi - float(np.sum(wq * target.values * phi))
    return AxialField(g, phi, "Potential")


def _cumulative_trapezoid(field: AxialField) -> np.ndarray:
    """Trapezoid integral of the field from -1 up to each grid node."""
    g, v = field.grid, field.values
    return np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])


def bin_probabilities(mu: AxialField, edges: np.ndarray) -> np.ndarray:
    """Integral of mu over [edges[i], edges[i+1]) — for histogram comparison."""
    if mu.kind != "Density":
        raise ValidationError("bin_probabilities expects a Density field")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("edges must be increasing, at least two of them")
    g = mu.grid
    at_edges = np.interp(np.clip(edges, g[0], g[-1]), g, _cumulative_trapezoid(mu))
    return np.diff(at_edges)
