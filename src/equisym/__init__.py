"""Stochastic symmetrisation of neural networks along group homomorphisms."""

from .stochmap import (
    RandomStream,
    Space,
    StochasticMap,
    compose,
    enumerate_distribution,
    lift_deterministic,
    product,
    sample,
)
from .groups import (
    GroupDescriptor,
    direct_product,
    general_linear_group,
    haar_sample,
    orthogonal_group,
    semidirect_product,
    special_euclidean_group,
    symmetric_group,
    translation_group,
    trivial_group,
)
from .equivariance import (
    Action,
    CosetBundle,
    Homomorphism,
    coset_bundle_orthogonal_in_gl,
    coset_bundle_semidirect,
    coset_bundle_trivial,
    diagonal_action,
    restrict_action,
)
from .symcore import (
    SymmetrisationSpec,
    average,
    compose_procedures,
    gamma_columnwise_mean,
    gamma_from_haar,
    symmetrise,
)

__version__ = "0.1.0"
