"""Free-set compatibility of quantum marginal families.

Decide whether a family of marginal density matrices admits a global state
whose target subsystem is resource-free, quantify the incompatibility by a
conic-program robustness measure, extract certifying witnesses and
operational discrimination tasks, and do the same for channel families via
Choi matrices.
"""

from .channel_rmp import (
    ChannelMarginalFamily,
    ChannelPair,
    ChannelRmpInstance,
    ChannelSpec,
    channel_linear_max_over_set,
    channel_robustness,
    channel_success_probability,
    channel_task_advantage,
    channel_witness,
    check_channel_compatible,
    marginal_channel,
    state_discrimination_task,
    tensor_channels,
)
from .config import DEFAULT_TOLS, Tolerances
from .discrimination import (
    DiscriminationTask,
    advantage,
    haar_unitary,
    histogram_experiment,
    sample_w_advantage,
    success_probability,
    task_from_witness,
    w_example_instance,
    w_histogram_instance,
)
from .freesets import FreeChannelSetSpec, FreeSetSpec
from .herm import (
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    SubsystemLayout,
    SubsystemSet,
    ValidationError,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    permute_factors,
    tensor,
    trace_norm,
)
from .solver import (ConicProgram, SolveResult, SolverFailure, SolverSettings, Status, solve,
                     solve_many)
from .state_rmp import (
    CompatibleSetModel,
    MarginalFamily,
    NoWitnessError,
    RmpInstance,
    Witness,
    activation_criterion,
    apply_free_operation,
    check_rfree_compatible,
    extract_witness,
    linear_max_over_set,
    product_channels_on_family,
    robustness,
    verify_w_uniqueness,
)

__version__ = "0.1.0"
