"""Low-rank quantum state tomography via damped, projected-SVT approximate
message passing, with measurement planning, shot/noise simulation, and a
momentum-inspired factored gradient descent baseline."""

from .amp import AmpConfig, AmpState, AmpTrace, estimate_onsager, psvt, run_amp, svt
from .errors import DivergenceError
from .measure import (
    NoiseModel,
    PhotonicNoise,
    ShotRecord,
    apply_coherent,
    apply_composite,
    apply_depolarizing,
    apply_loss,
    apply_pauli_flip,
    build_measurements,
    estimate,
    outcome_distribution,
    simulate,
)
from .mifgd import MifgdConfig, run_mifgd
from .pauli import (
    MeasurementPlan,
    SensingMap,
    apply_adjoint,
    apply_sensing,
    build_sensing_map,
    sample_observables,
    sample_settings_until,
)
from .states import (
    make_named_state,
    make_random_state,
    nmse,
    project_to_density,
    pure_density,
    state_fidelity,
)

__version__ = "0.1.0"
