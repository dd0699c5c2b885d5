"""Acceptance gate: one test per release criterion, one line of output each.

These call the same criterion functions that `ke-zeta verify --level full`
runs, so the gate is identical whether you arrive via pytest or the CLI.
Tolerances live next to the measurements in kezeta.verify; each line below
prints what was measured against what was allowed (visible with -s, and on
any failure).

Budget note: criteria 1, 8, 9 and 10 do real Monte Carlo / MCMC work; on a
shared 2-core machine, over three runs, they took 1.6-2.1, 5.5-7.4, 1.9-3.5
and 3.4-5.3 s (13-18 s together).  Everything else is exact arithmetic and
takes under a second per criterion.
"""

from kezeta import verify


def _gate(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_three_point_mass_mc_vs_gamma_product():
    _gate(verify.criterion_1())


def test_criterion_02_stability_verdict_equals_finiteness():
    _gate(verify.criterion_2())


def test_criterion_03_gamma_thresholds_and_first_beta_pole():
    _gate(verify.criterion_3())


def test_criterion_04_minimal_model_strip():
    _gate(verify.criterion_4())


def test_criterion_05_circular_ensemble_mass():
    _gate(verify.criterion_5())


def test_criterion_06_gaussian_determinant_ratio():
    _gate(verify.criterion_6())


def test_criterion_07_zero_free_tube():
    _gate(verify.criterion_7())


def test_criterion_08_sampler_axial_symmetry():
    _gate(verify.criterion_8())


def test_criterion_09_mean_field_vs_sampler_marginal():
    _gate(verify.criterion_9())


def test_criterion_10_free_energy_calculus():
    _gate(verify.criterion_10())


def test_criterion_11_volume_form_potential_approximant():
    _gate(verify.criterion_11())


def test_criterion_12_log_gamma_floor_and_removable_point():
    _gate(verify.criterion_12())
