"""Graded Clifford-module calculus on truncated oscillator spaces.

Layers, bottom to top: ``clifford`` (blade arithmetic for real Clifford
algebras), ``graded`` (Z/2-graded matrices and Koszul-sign constructions),
``funcalc`` (functional calculus for the Gaussian generator pair),
``oscillator`` (truncated Hermite model, supercharge, spectra,
multiplication operators), ``verify`` (numerical suites with pass/fail
reports), ``cli`` (command-line driver).
"""

__version__ = "0.1.0"

import types

from .clifford import (
    Signature,
    left_mult_operator,
    number_operator,
    regular_representation,
    twisted_right_mult_operator,
)
from .funcalc import (
    DeltaCheck,
    GradedFunction,
    delta_via_xr_check,
    gaussian,
    matrix_function,
    position_matrix,
    scale,
    x_gaussian,
)
from .graded import (
    GradedMatrix,
    flip_simple,
    flip_unitary,
    graded_commutator,
    graded_tensor,
    involution,
    tensor_product_witness,
)
from .oscillator import (
    CliffFunction,
    HermiteBasis,
    OscillatorRep,
    SpectrumResult,
    b_squared_identity_check,
    clifford_operator,
    compactness_profile,
    dirac_operator,
    level_multiplicity,
    multiplication_operator,
    oscillator_rep,
    rescale,
    spectrum,
)
from .verify import (
    SUITES,
    SweepConfig,
    VerificationReport,
    run_suite,
    svd_norm,
)

# every name imported above, and no submodule
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, types.ModuleType))
