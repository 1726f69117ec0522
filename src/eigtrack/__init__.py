"""Continuation-based eigenvalue tracking for parameterized matrix
pencils arising from semi-implicit differential-algebraic models."""

from . import dae, errors, linalg, models, spectrum, tracker
from .dae import DaeModel, ModelPencilProvider, PencilSample
from .models import (
    FilePencilProvider,
    MultiMachineSpec,
    SyntheticSparseProvider,
    companion_eigenvalues,
    load_pencil_sequence,
    make_companion_fold,
    make_multimachine,
)
from .spectrum import full_spectrum, mac, pair_by_mac, participation_factors
from .tracker import (
    AdaptConfig,
    NewtonConfig,
    TrackerConfig,
    TrackerState,
    Trajectory,
    init_from_eigenpair,
    track,
)

__version__ = "0.1.0"
