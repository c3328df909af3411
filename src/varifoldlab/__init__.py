"""varifold-lab: a numerical laboratory for discrete varifolds.

Sets are simplicial complexes (or weighted point clouds), varifolds are
finite atomic measures on positions x m-planes, and convergence is probed
two ways: normalized local Hausdorff distance on sets and bounded-Lipschitz
distance on varifolds. Scenario experiments tabulate when the first implies
the second, integrand energies and ellipticity audits cover the anisotropic
variant, and quasiminimality audits test the deformation inequality.
"""

from .geometry import (GrassmannSample, Plane, axis_plane, grassmann_distance,
                       haar_sample, orthonormalize, project, tangent_jacobian)
from .sets import (Ball, PointCloudSet, SimplicialSet, ahlfors_ratios,
                   distance_to_set, load_set, measure, nearest_simplex, rescale,
                   restrict, save_set, translate)
from .scenarios import (FAMILIES, ScenarioFamily, cantor4_set, disk_set, get_family,
                        scenario_sequence, segment_set, ycone_set)
from .varifold import (DensityReport, DiscreteVarifold, blowup, density_report,
                       load_varifold, mass_in_ball, restrict_to_ball,
                       save_varifold, unit_ball_volume, var_of_pointcloud,
                       var_of_set)
from .metrics import (BLDistanceReport, FillingReport, HausdorffReport,
                      bl_distance, filling_check, hausdorff_local,
                      hausdorff_local_report, projected_mass)
from .integrands import (EllipticityReport, Integrand, best_c_scan, energy,
                         flat_disk, frozen, frozen_deviation, get_integrand,
                         load_tabulated_integrand, rescaled,
                         semi_ellipticity_audit, set_energy)
from .quasimin import (DEFORMATION_NAMES, Deformation, GaugeFunction,
                       QMAuditReport, SemicontinuityReport, make_deformation,
                       qm_audit, qm_gap, semicontinuity_check)
from .lab import ConvergenceReport, ScenarioSpec, run_scenario, spearman_rank

__version__ = "0.1.0"
