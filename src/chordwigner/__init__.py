"""Semiclassical Wigner functions from chord geometry, with Lindblad
decoherence and an exact quantum-mechanical cross-check.

The public surface re-exports the main types and operations of each
submodule; see the README for a guided tour.
"""
from .flow import (  # noqa: F401
    J,
    HamiltonianSystem,
    NumericalError,
    ShellError,
    Trajectory,
    find_period,
    hamiltonian_flow,
    make_system,
    periodic_orbit,
    polynomial_system,
    shell_average,
    shell_start,
    skew,
)

from .shells import (  # noqa: F401
    Chord,
    ShellSpec,
    build_shell,
    chord_amplitude,
    find_chords,
    quantize_energy,
)

from .wigner import (  # noqa: F401
    SemiclassicalState,
    WignerGridResult,
    WignerSample,
    eval_grid,
    eval_state,
    phase_gradient,
    pure_state,
    window_factor,
)

from .lindblad import (  # noqa: F401
    DecoherenceRecord,
    EvolvedChord,
    LindbladChannel,
    NonHermitianError,
    decoherence_distance,
    evolution_trace,
    evolve_contribution,
    hermitian_decay_rate,
    lindblad_rate,
    make_channel,
    momentum_channel,
    polynomial_channel,
    position_channel,
    shell_d2,
    trotter_evolve,
    write_trace,
)

from .diffusion import (  # noqa: F401
    bracket_rate,
    window_width,
    write_diffusion_report,
)

from .projection import (  # noqa: F401
    DensityMatrixElement,
    TurningPointError,
    WKBBranch,
    density_matrix,
    density_matrix_sc,
    swapped_shell,
    wkb_branches,
    write_element_grid,
)

from .normalization import (  # noqa: F401
    AngleIntegralReport,
    direct_trace,
    purity_decay,
    purity_t0,
    run_suite,
)

from .compare import (  # noqa: F401
    ALL_CHECKS,
    CheckResult,
    run_checks,
)

from . import oracle  # noqa: F401

__version__ = "0.1.0"
