"""Wigner normal form of conjugate-normal matrices and generalized Pfaffians.

A square complex matrix A with A^T A* = A A^H (conjugate-normal) is
unitarily congruent to a Hermitian block matrix: A = U Sigma U^T.  This
package constructs that normal form, evaluates the Pfaffian generalizations
it induces for non-antisymmetric matrices, and validates the algebraic
identities they satisfy against brute-force oracles.
"""

from .ensembles import (
    SpectrumEntry,
    SpectrumSpec,
    random_conjugate_normal,
    random_ginibre,
)
from .errors import (
    Error,
    InputError,
    NotConjugateNormalError,
    NotNormalError,
    ParseError,
    PfUndefinedError,
    ReconstructionError,
    SpectralConsistencyError,
)
from .generalized import (
    IdentityCheck,
    IdentityReport,
    PfDiagnostics,
    PfResult,
    antisymmetrized_pfaffian,
    generalized_pfaffian,
    generalized_pfaffian_via_relation,
    identity_report,
    pfaffian_derivative,
)
from .io import MatrixDocument, parse_matrix, render_matrix
from .linalg import DEFAULT_TOL, Tolerances
from .normal_form import (
    NormalForm,
    OffDiagBlock,
    Real1Block,
    SpectralCluster,
    SpectralPairing,
    classify_spectrum,
    is_conjugate_normal,
    reconstruct,
    wigner_normal_form,
)
from .pfaffian import pf_polynomial, pf_skew_parlett_reid

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Error",
    "IdentityCheck",
    "IdentityReport",
    "InputError",
    "MatrixDocument",
    "NormalForm",
    "NotConjugateNormalError",
    "NotNormalError",
    "OffDiagBlock",
    "ParseError",
    "PfDiagnostics",
    "PfResult",
    "PfUndefinedError",
    "Real1Block",
    "ReconstructionError",
    "SpectralCluster",
    "SpectralConsistencyError",
    "SpectralPairing",
    "SpectrumEntry",
    "SpectrumSpec",
    "Tolerances",
    "antisymmetrized_pfaffian",
    "classify_spectrum",
    "generalized_pfaffian",
    "generalized_pfaffian_via_relation",
    "identity_report",
    "is_conjugate_normal",
    "parse_matrix",
    "pf_polynomial",
    "pf_skew_parlett_reid",
    "pfaffian_derivative",
    "random_conjugate_normal",
    "random_ginibre",
    "reconstruct",
    "render_matrix",
    "wigner_normal_form",
]
