"""Two qubits coupled to one thermal cavity mode.

The package follows one pipeline: describe the thermal field and its
truncation (:mod:`thermalqubits.fock_thermal`), evolve pure components in
closed form (:mod:`thermalqubits.closed_form`) or through the phase-state
average (:mod:`thermalqubits.phase_engine`), trace out the field
(:mod:`thermalqubits.reduction`), and score the leftover atomic
entanglement (:mod:`thermalqubits.entanglement`).  Every step has a
numerically diagonalized counterpart in :mod:`thermalqubits.oracle`, kept
formula-free so the two sides can check each other;
:mod:`thermalqubits.checks` measures how far the routes disagree.
"""

from .closed_form import (
    ATOM_LABELS,
    CouplingPair,
    amplitude_table,
    block_spectrum,
    phase_propagator,
)
from .entanglement import (
    NegativityResult,
    closed_form_gamma,
    closed_form_negativity,
    negativity,
    upsilon_witness,
)
from .fock_thermal import (
    ThermalFieldSpec,
    mean_photons_from_temperature,
    phase_state_rows,
    truncation_for_tolerance,
)
from .phase_engine import (
    JointDensity,
    PureStatePropagator,
    evolve_mixed,
    mixed_reduced_density,
    partial_trace_field,
    quadrature_nodes,
    reconstruct_field_density,
)
from .reduction import AtomicMixtureSpec, TwoQubitDensity, reduced_density

__version__ = "0.1.0"

__all__ = [
    "ATOM_LABELS",
    "AtomicMixtureSpec",
    "CouplingPair",
    "JointDensity",
    "NegativityResult",
    "PureStatePropagator",
    "ThermalFieldSpec",
    "TwoQubitDensity",
    "amplitude_table",
    "block_spectrum",
    "closed_form_gamma",
    "closed_form_negativity",
    "evolve_mixed",
    "mean_photons_from_temperature",
    "mixed_reduced_density",
    "negativity",
    "partial_trace_field",
    "phase_propagator",
    "phase_state_rows",
    "quadrature_nodes",
    "reconstruct_field_density",
    "reduced_density",
    "truncation_for_tolerance",
    "upsilon_witness",
    "__version__",
]
