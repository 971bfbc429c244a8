"""Recurrent cells as explicit discrete-time dynamical systems.

Simulation, fixed points and attractors, bifurcation diagrams over
parameters or training epochs, Lyapunov exponents, growth laws of the
cost-landscape Lipschitz constants, and a desk-scale training harness
for LSTM, stable-LSTM and orthogonal-RNN cells.
"""

__version__ = "0.1.0"

from .analysis import (
    AttractorClass,
    BifurcationDiagram,
    EntropyTrace,
    bifurcation_sweep,
    check_entropy_bound,
    classify_attractor,
    entropy_linear_gaussian,
    make_projection,
)
from .cells import (
    LstmCell,
    OrthogonalRnnCell,
    StableLstmCell,
    VanillaRnnCell,
    chaotic_reference_cell,
    load_cell,
    make_cell,
    project_stable,
    realize_orthogonal,
    spectral_norm,
)
from .errors import (
    ConfigError,
    EmptyRegion,
    LengthMismatch,
    NonFiniteState,
    RnnLabError,
    SingularMatrix,
    TooFewSamples,
)
from .params import ParameterLayout, ParameterVector
from .sensitivity import (
    LOSSES,
    SIGMOID_CROSS_ENTROPY,
    SQUARED_ERROR,
    Sequence,
    cost,
    cost_and_gradient_reverse,
    gradient,
)
from .smoothness import (
    LandscapeGrid,
    SmoothnessConstants,
    bound_L_V,
    bound_L_V_prime,
    bound_S,
    empirical_lipschitz_V,
    landscape_sweep,
    local_minima_census,
)
from .statespace import (
    DynamicalModel,
    FixedPoint,
    Region,
    Trajectory,
    estimate_lipschitz_f,
    find_fixed_points,
    lyapunov_exponent,
    simulate,
)
from .training import (
    Adam,
    SineTask,
    SymbolTask,
    TrainConfig,
    TrainRun,
    clip_global_norm,
    save_run,
    snapshot_epochs,
    train,
)
