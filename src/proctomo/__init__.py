"""Projected least-squares quantum process tomography.

Simulate Pauli and MUB measurement scenarios for a known channel, build the
closed-form least-squares Choi estimators, project them onto the physical
set (thresholded first stage plus AP / Dykstra / HIP / dual second stage),
and evaluate concentration bounds and confidence regions.
"""

from .channels import (ChannelSpec, ChoiMatrix, DensityMatrix, KrausSet,
                       choi_from_kraus, distance, fidelity, kraus_factor,
                       kraus_rank, make_channel, partial_trace, qft_unitary)
from .designs import MubFamily, mub_family, near_isotropy_defect
from .simulate import FrequencyTable, SamplingPlan, exact_table, sample
from .estimators import LsEstimate, ls_estimate
from .projections import (HalfSpace, ProjectionConfig, ProjectionReport,
                          depolarizing_finalize, hip_inner, proj_cp,
                          proj_cp1_thresholded, proj_tp, project_to_cptp)
from .bounds import (ConfidenceRegion, ErrorBudget, confidence_region,
                     direct_projection_bound, f_factor, g_factor,
                     ls_failure_prob, pls_failure_prob, sample_complexity)
from .harness import ExperimentConfig, RunRecord, load_config, run

__version__ = "0.1.0"
