"""Exact weight combinatorics and eigenvalue-1 decision procedures for
2-modular representations of the symplectic groups Sp_2n(2)."""

from .arith import WorkLimitError
from .branching import (
    GUARANTEED_ONE,
    POSSIBLE_EXCEPTION,
    LinearWeight,
    eps_restrict,
    exterior_factors,
    linear_fundamental,
    real_by_order_sl,
    real_by_order_su,
    real_element_verdict,
    restrict_to_c,
)
from .criteria import (
    NO,
    UNDETERMINED,
    YES,
    FundamentalTwistException,
    HasOne,
    TensorCase,
    Verdict,
    abelian_all,
    element_has_one,
    p49_classify,
    p88_guarantee,
    prime_power_all,
    singer_cycle_has_one,
    th7_blocks,
    torus_trivial,
    unisingular,
)
from .elements import (
    GammaGraph,
    SemisimpleElement,
    build_element,
    enumerate_elements,
    gamma_graph,
    has_eigenvalue_one_omega_n,
    identity_element,
    max_singer_element,
    omega_n_eigenvalue_orders,
    parse_element,
    singer_cycle,
    singer_height,
    singer_height_fast,
    singer_index_element,
    to_torus_element,
)
from .harness import SuiteReport, run_suite
from .reps import (
    ModuleKind,
    g_effective_weight_set,
    has_zero_weight,
    minkowski_sum,
    twist_decompose,
    weight_set,
    zero_in_weight_set,
)
from .tori import (
    TorusElement,
    TorusShape,
    block_sums,
    enumerate_shapes,
    eval_weight,
    occurs_in_omega_n,
    parse_torus_label,
    singer_index,
    singer_shape,
    t_sharp,
    torus_order,
    trivial_constituent,
    unisingular_on_torus,
)
from .weights import (
    EpsWeight,
    Weight,
    WeightSet,
    delta,
    dominant_below,
    dominant_representative,
    dominates,
    dominates_oracle,
    from_eps,
    fundamental,
    gamma,
    is_radical,
    parse_weight,
    simple_root,
    to_eps,
    weyl_orbit,
    zero_weight,
)

__version__ = "0.1.0"
