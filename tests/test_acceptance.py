"""Acceptance gate: one test per release criterion, one line of output each.

The tests run every criterion registered in kezeta.verify._CRITERIA, the
functions that `ke-zeta verify --level full` runs, so the gate is identical
whether you arrive via pytest or the CLI, and a newly declared criterion is
gated without another test.  Tolerances live next to the measurements in
kezeta.verify; each line below prints what was measured against what was
allowed (visible with -s, and on any failure).

Budget note: criteria 1, 8, 9 and 10 do real Monte Carlo / MCMC work; on a
shared 2-core machine, over three runs (`--durations`), they took 1.1-1.8,
4.2-4.9, 1.5-2.4 and 1.7-2.6 s (9.3-11.0 s together).  Everything else is
exact arithmetic and takes under half a second per criterion.
"""

import pytest

from kezeta import verify


def _gate(result):
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("cid", sorted(verify._CRITERIA), ids="{:02d}".format)
def test_criterion(cid):
    _gate(verify._CRITERIA[cid]())


def test_registry_holds_criteria_1_to_12_as_module_attributes():
    # perfbench/tracing.py wraps criterion_k wherever it is bound, the
    # registry included, so each entry must be the module attribute itself
    assert sorted(verify._CRITERIA) == list(range(1, 13))
    for cid, criterion in verify._CRITERIA.items():
        assert criterion is getattr(verify, f"criterion_{cid}")
