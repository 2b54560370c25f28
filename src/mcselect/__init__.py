"""Information-theoretic coordinate subset and partition selection for
finite multivariate Markov chains via greedy submodular optimization."""

from .chain_core import (
    ConvergenceError,
    Distribution,
    EdgeMeasure,
    GuardError,
    ProductStateSpace,
    SubsetMask,
    TransitionMatrix,
    ValidationError,
    edge_measure,
    marginalize,
    matrix_power,
    stationary_distribution,
    stationary_residual,
    tensor,
    tensor_dist,
    validate,
    worst_case_tv,
)
from .functionals import (
    KLResult,
    distance_to_factorizability,
    distance_to_factorizability_fixed,
    distance_to_independence,
    distance_to_stationarity,
    entropy_rate,
    kl_rate,
    kl_to_blocks,
    kl_to_stationary,
    shannon_entropy,
)
from .models import CurieWeissParams, curie_weiss_chain, hamiltonian, load_chain, save_chain
from .objectives import (
    ObjectiveDecomposition,
    Partition,
    Workspace,
    build_partition_objective,
    build_subset_objective,
    is_product_form,
)
from .optimizers import (
    Certificate,
    OptimumTable,
    RunResult,
    batch_greedy,
    certify,
    distorted_greedy,
    generalized_distorted_greedy,
    greedy,
    local_search,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
