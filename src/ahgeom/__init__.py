"""Numerical curvature workbench for almost Hermitian structures.

Tensor algebra on plain arrays in g's orthonormal frames, where a point is
its structure J and its tensors (`tensor_core`), an expression-chart engine
with exact jet-based covariant calculus (`charts`, `calculus`), bundled
model manifolds, each a packaged chart file with one row of expectations
(`models`), per-point statistics and classification (`analysis`), and a
deterministic report front end (`report`, `cli`).
"""

from .tensor_core import (
    InvariantViolation,
    Planes,
    ah_identity_residual,
    build_from_decomposition,
    fit_pi_span,
    pi1,
    pi2,
    psi,
    riemann_symmetry_residual,
    sectional_curvature,
    standard_j,
)
from .charts import ChartError, ChartSpec, parse_chart
from .calculus import (
    class_residuals,
    gray_ak2_residual,
    in_frame,
    nabla_J,
    nabla_R,
    ricci,
    riemann,
)
from .analysis import (
    CurvatureStats,
    Verdict,
    adapted_eigenframe,
    bianchi2_residual,
    classify,
    constancy,
    decomposition_residual,
    einstein_residual,
    proof_relation_32_residual,
    sample_antiholomorphic_planes,
    sample_holomorphic_planes,
    schur_check,
)
from .models import ModelDescriptor, get_model, model_names
from .report import AnalysisReport, analyze_chart, analyze_model

__version__ = "0.1.0"
