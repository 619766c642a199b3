"""Upper bounds on device-independent QKD key rates.

Numerical library for CHSH-based devices and noisy qubit channels: explicit
eavesdropping-strategy evaluations of the conditional mutual information,
local-polytope decompositions, relative entropy of entanglement (closed
forms and a numerical optimizer), and the channel capacity bounds, all
emitted as machine-readable bound curves.
"""

from .bounds import (
    NU_STAR,
    BoundCurve,
    SimulationReport,
    al_bound,
    bound_curve,
    cc_sq_multi,
    channel_curve,
    channel_di_bound,
    convex_hull_bound,
    dephasing_simulation,
    fbjl_bound,
    fractional_er_bound,
    hull_bound,
    intrinsic_nonlocality_upper,
    pironio_er_bound,
)
from .devices import (
    Behavior,
    CcqState,
    MeasurementFamily,
    assemble_ccq,
    behavior_from,
    broadcast_ccq,
    chsh_value,
    honest_chsh_device,
    kraus_map,
    mixed_key_povm,
    noisy_key_povm,
    observable_povm,
    povm_map,
    qber,
    separable_chsh2_strategy,
)
from .errors import (
    AlphabetTooLargeError,
    BadSettingError,
    DimensionMismatchError,
    GridMismatchError,
    InfeasibleError,
    NoConvergenceError,
    NotHermitianError,
    NoViolationError,
    NumericalFailureError,
    TooManyVerticesError,
    UnboundedError,
)
from .fileio import (
    load_behavior,
    load_state,
    save_behavior,
    save_state,
)
from .linalg import Spectrum, partial_trace
from .measures import (
    TWO_SQRT2,
    cmi_ccq,
    er_bell_diagonal_closed,
    er_isotropic_closed,
    er_numeric,
    intrinsic_info,
    mutual_info,
)
from .polytope import (
    LocalDecomposition,
    enumerate_vertices,
    max_local_weight,
    max_local_weight_with_residual,
    simplex_solve,
)
from .states import (
    DensityMatrix,
    PureState,
    QubitChannel,
    apply_channel,
    binary_entropy,
    choi_state,
    make_bell_diagonal,
    make_isotropic,
    purify,
    relative_entropy,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
