"""Low-rank quantum state tomography via damped, projected-SVT approximate
message passing, with measurement planning, shot/noise simulation, and a
momentum-inspired factored gradient descent baseline."""

from .amp import AmpConfig, AmpState, AmpTrace, run_amp
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
    simulate,
)
from .mifgd import MifgdConfig, run_mifgd
from .pauli import (
    MeasurementPlan,
    SensingMap,
    apply_adjoint,
    apply_sensing,
    sample_observables,
    sample_settings_until,
    sensing_map_from_indices,
)
from .states import (
    factor_density,
    make_named_state,
    make_random_state,
    nmse,
    project_to_density,
    psvt,
    pure_density,
    state_fidelity,
    svt,
)

__version__ = "0.1.0"
