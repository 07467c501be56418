"""Pseudo-spectral compressible Navier-Stokes on the periodic torus with a
Littlewood-Paley/Besov diagnostics library."""

from .bands import (
    BesovIndex,
    DyadicBands,
    besov_norm,
    build_partition,
    chemin_lerner_norm,
    dyadic_block,
    low_cutoff,
    split_low_high,
)
from .calculus import (
    advect,
    commutator_transport,
    compressible_project,
    leray_project,
    paraproduct,
    remainder,
)
from .diagnostics import (
    LimitError,
    NormLedger,
    SweepResult,
    fit_rate,
    limit_error,
    norm_ledger,
)
from .io import read_snapshot, write_snapshot
from .solvers import (
    BlowupError,
    FlowState,
    PhysicalParams,
    StepperConfig,
    Trajectory,
    run,
    step_cns,
    step_heat,
    step_ins,
    taylor_green,
)
from .spectral import (
    Grid,
    SpectralField,
    SpectralError,
    derivative,
    divergence,
    forward_transform,
    gradient,
    inv_laplacian,
    inverse_transform,
    lp_norm,
    make_grid,
    product_dealiased,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
