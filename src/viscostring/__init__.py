"""viscostring: simulate a string with persistent memory and identify its
coefficient from boundary data.

Layers (bottom up): grids and causal quadratures (grid), relaxation-kernel
algebra (kernels), the forward wave solver and its finite-difference oracle
(forward), the connecting-operator Gram assembled from boundary responses
(connecting), the steering-control reconstruction of q (identify), dataset
bundles and configuration (dataio), the acceptance battery (verification)
and the command line (cli).
"""

from .errors import (
    ConfigError,
    DataFormatError,
    GridMismatchError,
    KernelValidationError,
    NumericalFailure,
)
from .grid import (
    Sampled1D,
    Sampled2D,
    TimeGrid,
    causal_convolve,
    centered_difference,
    cumulative_integral,
)
from .kernels import (
    MemoryKernel,
    ResolventData,
    build_kernel,
    resolvent,
    response_to_traction,
    solve_volterra,
)
from .forward import (
    StringProblem,
    WaveField,
    fd_oracle,
    solve_mild,
)
from .connecting import (
    ConnectingGram,
    ControlBasis,
    ResponseTable,
    gram_from_data,
    gram_oracle,
    hat_basis,
    synthesize_table,
)
from .identify import (
    IdentifyConfig,
    ReconstructionResult,
    SteeringControl,
    default_horizons,
    pipeline,
    reconstruct_q,
    steering_control,
    steering_rhs,
)
from .dataio import RunConfig, load_bundle, parse_config, save_bundle, synthesize

__version__ = "0.1.0"
