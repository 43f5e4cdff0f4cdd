import numpy as np
import pytest

from pshlab.field_grid import build_grid
from pshlab.potential_kit import builtin_potential


@pytest.fixture(scope="session")
def grid128():
    return build_grid(1, 128, 1.0)


@pytest.fixture(scope="session")
def grid96_r2():
    return build_grid(1, 96, 2.0)


@pytest.fixture(scope="session")
def flat():
    return builtin_potential("flat")


@pytest.fixture(scope="session")
def quartic():
    return builtin_potential("quartic")


@pytest.fixture(scope="session")
def perturbed():
    return builtin_potential("perturbed")


@pytest.fixture(scope="session")
def flat_ray_small(flat, grid128):
    from pshlab.envelope_solver import radial_envelopes
    from pshlab.geodesic_legendre import assemble_geodesic, lam_nodes
    return assemble_geodesic(
        radial_envelopes(flat, lam_nodes(0.8, 32), grid128), 0.8)


@pytest.fixture(scope="session")
def perturbed_slices_small(perturbed, grid128):
    from pshlab.envelope_solver import grid_envelopes
    from pshlab.geodesic_legendre import lam_nodes
    return grid_envelopes(perturbed, lam_nodes(0.45, 24), grid128, tol=1e-9)


@pytest.fixture(scope="session")
def perturbed_ray_small(perturbed_slices_small):
    from pshlab.geodesic_legendre import assemble_geodesic
    return assemble_geodesic(perturbed_slices_small, 0.45)
