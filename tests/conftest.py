"""Shared fixtures: small models and providers used across the suite."""

import numpy as np

# One line per acceptance criterion, echoed after the run summary so the
# pass/fail verdicts are visible regardless of output capturing.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


import pytest
import scipy.sparse as sp

from eigtrack.dae import (
    DaeModel,
    ModelBlocks,
    ModelPencilProvider,
    ParamDescriptor,
)
from eigtrack.linalg import as_csc
from eigtrack.models import make_companion_fold


@pytest.fixture
def companion_model():
    return make_companion_fold(c=2.0)


@pytest.fixture
def companion_provider(companion_model):
    return ModelPencilProvider(companion_model, form="reduced")


@pytest.fixture
def scalar_linear_provider():
    """Scalar pencil E = [1], A(p) = [-p]: eigenvalue s(p) = -p exactly."""

    def f(x, y, p):
        return np.array([-p * x[0]])

    def g(x, y, p):
        return np.empty(0)

    model = DaeModel(
        n=1, m=0, f=f, g=g,
        T=lambda p: sp.identity(1, format="csc"),
        R=lambda p: sp.csc_matrix((0, 1)),
        param=ParamDescriptor("p", 0.0, 1.0),
        jacobians=lambda x, y, p: (np.array([[-p]]), np.empty((1, 0)),
                                   np.empty((0, 1)), np.empty((0, 0))),
        guess=(np.zeros(1), np.empty(0)),
        affine_in_p=True,
    )
    return ModelPencilProvider(model, form="reduced")


def dense(M) -> np.ndarray:
    """A provider's or a block's matrix as an ndarray, whichever layout
    (dense below DENSE_LIMIT, CSC above) it comes in."""
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def simple_blocks():
    """The 1-state / 1-algebraic block set with reduced matrix [-0.5]."""
    return ModelBlocks(
        T=as_csc(np.array([[1.0]])),
        R=as_csc(np.zeros((1, 1))),
        f_x=as_csc(np.array([[-1.0]])),
        f_y=as_csc(np.array([[1.0]])),
        g_x=as_csc(np.array([[1.0]])),
        g_y=as_csc(np.array([[-2.0]])),
    )


@pytest.fixture
def coupled_dae_model():
    """Nonlinear 2-state / 2-algebraic model with nonzero R coupling.

    Used for spectrum-equivalence checks between the sparse pencil and
    the reduced state matrix.
    """

    def f(x, y, p):
        return np.array([
            -2.0 * x[0] + 0.5 * x[1] + y[0] - p * np.sin(x[0]),
            0.3 * x[0] - 1.5 * x[1] + 0.2 * y[1],
        ])

    def g(x, y, p):
        return np.array([
            x[0] - 2.0 * y[0] + 0.1 * y[1] + p,
            0.4 * x[1] + y[0] - 1.2 * y[1],
        ])

    return DaeModel(
        n=2, m=2, f=f, g=g,
        T=lambda p: as_csc(np.array([[1.0, 0.1], [0.0, 2.0]])),
        R=lambda p: as_csc(np.array([[0.2, 0.0], [0.0, -0.3]])),
        param=ParamDescriptor("p", 0.0, 1.0),
        guess=(np.zeros(2), np.zeros(2)),
    )
