"""The acceptance suite: every quantitative criterion at its pinned
tolerance, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The shared context (slice families, rays, leaves) is built
lazily and reused across criteria; the full run takes several minutes.
"""

import numpy as np
import pytest

from pshlab.acceptance import CRITERIA, AcceptanceContext, _level_set_bands


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext(quick=False)


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f.__name__ for f in CRITERIA])
def test_criterion(ctx, criterion):
    result = criterion(ctx)
    print()
    print(result.line())
    assert result.passed, result.line()


def test_level_set_bands_one_and_two_nodes(flat_ray_small):
    # C4's band on one oracle slice, where {deficit < 0} = {H0 < lam}
    # exactly: a node moved next to the boundary of {deficit < 0} is a
    # one-node band, a node two nodes from it is a band of 2
    slices, ray = flat_ray_small
    lam, res = slices[16]
    fld = res.deficit
    band = lambda values: _level_set_bands(
        ray, [slices[0], (lam, fld.with_values(values))])
    assert band(fld.values) == 0
    i0, j0 = ray.spatial_grid.origin_index()
    negative = fld.mask[:, j0] & (fld.values[:, j0] < 0.0)
    i = np.flatnonzero(negative).max()   # last node before the contact set
    assert i - i0 > 8
    edge = fld.values.copy()
    edge[i, j0] = 0.0
    assert band(edge) == 1
    # a plus of contact nodes four nodes deep: its centre is two nodes from
    # {deficit < 0}, and no single moved node can be (it would be a node of
    # its own boundary)
    hole = fld.values.copy()
    for di, dj in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        hole[i - 4 + di, j0 + dj] = 0.0
    assert band(hole) == 2
