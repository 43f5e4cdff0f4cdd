"""pshlab: numerical pluripotential toolkit.

Computes plurisubharmonic envelopes with logarithmic-pole obstacles,
Hele-Shaw type equilibrium sets, S^1-invariant weak geodesic rays via
Legendre duality, Monge-Ampere masses and moments, and foliation-disc
diagnostics, all at desk scale on disc/ball domains.
"""

from .field_grid import (GridSpec, ScalarField, build_grid, c2_norm,
                         ddc_component, load_field, save_field)
from .potential_kit import (BUILTIN_POTENTIALS, NormalizedChart, Potential,
                            Term, builtin_potential, glue_to_ball,
                            normalize_chart, regularized_max,
                            suggest_glue_parameters, validate_strict_psh)
from .envelope_solver import (EnvelopeResult, Obstacle, build_obstacle,
                              extract_equilibrium, grid_envelope,
                              lelong_check, radial_envelope)
from .geodesic_legendre import (GeodesicRay, HamiltonianField,
                                assemble_geodesic, hamiltonian,
                                hmae_residual, legendre_slices,
                                oracle_slices, weak_solution)
from .ma_measure import MeasureReport, boundary_mass, ma_mass, reproducing_check
from .foliation_tube import (Leaf, TubularMap, build_tubular_map,
                             check_pullback, disc_area, trace_leaf, trace_leaves)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
