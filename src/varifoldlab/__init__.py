"""varifold-lab: a numerical laboratory for discrete varifolds.

Sets are simplicial complexes (or weighted point clouds), varifolds are
finite atomic measures on positions x m-planes, and convergence is probed
two ways: normalized local Hausdorff distance on sets and bounded-Lipschitz
distance on varifolds. Scenario experiments tabulate when the first implies
the second, integrand energies and ellipticity audits cover the anisotropic
variant, and quasiminimality audits test the deformation inequality.
"""

from .geometry import (Plane, axis_plane, grassmann_distance, haar_sample, orthonormalize,
                       tangent_jacobian)
from .sets import (Ball, PointCloudSet, SimplicialSet, distance_to_set, load_set,
                   measure, nearest_simplex, restrict, save_set)
from .scenarios import (FAMILIES, ScenarioFamily, cantor4_set, disk_set, get_family,
                        scenario_sequence, segment_set, ycone_set)
from .varifold import (DensityReport, DiscreteVarifold, density_report, load_varifold,
                       save_varifold, unit_ball_volume, var_of_set)
from .metrics import (BLDistanceReport, FillingReport, HausdorffReport,
                      bl_distance, filling_check, hausdorff_local,
                      hausdorff_local_report, projected_mass)
from .integrands import (EllipticityReport, Integrand, energy, flat_disk, frozen,
                         get_integrand, load_tabulated_integrand,
                         semi_ellipticity_audit, set_energy)
from .quasimin import (DEFORMATION_NAMES, Deformation, GaugeFunction,
                       QMAuditReport, SemicontinuityReport, make_deformation,
                       qm_audit, qm_gap, semicontinuity_check)
from .lab import ConvergenceReport, ScenarioSpec, run_scenario, spearman_rank

__version__ = "0.1.0"
