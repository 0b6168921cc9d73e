"""Average-gate-fidelity estimation workbench with exact randomness accounting.

Five estimation strategies (naive Haar sampling, iid design sampling,
k-wise-independent design sampling, single-expander-draw repetition, and a
two-phase expander scheme) run against an exact Kraus-formula oracle, with
every truly random bit they consume recorded in an auditable ledger.
"""

from .channels import compose_channels, noise_preset, parse_channel_spec
from .ensembles import (
    DesignCheck,
    HaarTwirlProjector,
    MomentOperator,
    UnitaryEnsemble,
    builtin_ensemble,
    design_epsilon_from_lambda,
    haar_twirl_projector,
    load_ensemble,
    moment_superoperator,
    save_ensemble,
    tensor_product,
    tpe_lambda,
)
from .estimators import (
    EstimationResult,
    estimate_design_iid,
    estimate_kwise_design,
    estimate_naive_haar,
    estimate_single_qtpe,
    estimate_two_phase,
    plan_kwise_design,
    plan_naive_haar,
    plan_single_qtpe,
    plan_two_phase,
)
from .harness import (
    BoundCheck,
    HarnessReport,
    SuiteParams,
    bound_validation_suite,
    exhaustive_bias_check,
    harness_confidence,
)
from .prg import (
    BiasedTape,
    GF2mField,
    RandomnessLedger,
    generate_tape,
    kwise_seed_length,
    sample_indices,
    sampling_seed_length,
    tape_seed_length,
)
from .quantum import KrausChannel, exact_average_fidelity, gate_fidelities, schatten_norm
from .streams import BitSource, fresh_seed, measurement_rng, split_seed

__version__ = "0.1.0"
