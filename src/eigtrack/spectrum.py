"""Dense-oracle utilities: full spectra, the modal assurance criterion
(MAC), :func:`best_match` (the one rule that re-finds a mode in a full
spectrum, for re-initialization, reference trajectories and
``--target-ref``), participation factors, and reference trajectories by
repeated eigendecomposition."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegeneratePair, DimensionMismatch, NoCandidate, ZeroVector
from .linalg import eig_dense

__all__ = [
    "EigenPair",
    "ReferenceTrajectory",
    "best_match",
    "full_spectrum",
    "mac",
    "participation_factors",
    "reference_trajectory",
    "damping_ratio",
    "frequency_hz",
    "write_spectrum_csv",
]


@dataclass
class EigenPair:
    s: complex
    right: np.ndarray
    left: Optional[np.ndarray] = None


@dataclass
class ReferenceTrajectory:
    """Repeated-eigendecomposition reference for one tracked mode."""

    p_values: List[float]
    pairs: List[EigenPair]  # the tracked pair at each p
    step_mac: List[float]
    low_mac_steps: List[int]

    def tracked_values(self) -> np.ndarray:
        return np.array([pair.s for pair in self.pairs])


def damping_ratio(s: complex) -> float:
    """-Re(s)/|s|; zero for s = 0 by convention."""
    mag = abs(s)
    return 0.0 if mag == 0 else -s.real / mag


def frequency_hz(s: complex) -> float:
    return abs(s.imag) / (2.0 * np.pi)


def full_spectrum(provider, p: float,
                  pencil_coords: bool = False) -> List[EigenPair]:
    """All n finite eigenpairs (right vectors only) of the reduced state
    matrix at p.

    With ``pencil_coords=True``, right eigenvectors are lifted back to
    the (n+m)-dimensional pencil coordinates by appending the algebraic
    components; the eigenvector matrix is lifted in one call, so the
    algebraic elimination runs once per spectrum.
    """
    eigs = eig_dense(provider.reduced(p))
    vectors = [right for _, right, _ in eigs]
    if pencil_coords and eigs:
        vectors = provider.lift(p, np.column_stack(vectors)).T
    return [EigenPair(s=s, right=v) for (s, _, _), v in zip(eigs, vectors)]


def mac(a: np.ndarray, b: np.ndarray) -> float:
    """Modal assurance criterion |a* b|^2 / ((a* a)(b* b)) in [0, 1]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = np.vdot(a, a).real
    nb = np.vdot(b, b).real
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("MAC undefined for a zero vector")
    return float(min(1.0, abs(np.vdot(a, b)) ** 2 / (na * nb)))


def best_match(pairs: Sequence[EigenPair], phi: np.ndarray,
               s_ref: Optional[complex] = None) -> Tuple[int, float]:
    """``(index, MAC)`` of the pair whose right eigenvector best matches
    ``phi``: highest MAC first, then the eigenvalue nearest ``s_ref``,
    then the lowest index.

    Raises :class:`NoCandidate` for an empty spectrum and
    :class:`DimensionMismatch` when ``phi`` and the eigenvectors differ
    in length.
    """
    if not len(pairs):
        raise NoCandidate("no spectrum entry to match")
    phi = np.asarray(phi)
    if phi.shape != pairs[0].right.shape:
        raise DimensionMismatch(
            f"reference vector has length {phi.size}, the spectrum's "
            f"eigenvectors have length {pairs[0].right.size}")
    neg_mac, _, i = min(
        (-mac(phi, pair.right),
         0.0 if s_ref is None else abs(pair.s - s_ref), i)
        for i, pair in enumerate(pairs))
    return i, -neg_mac


def participation_factors(pairs: Sequence[EigenPair]) -> np.ndarray:
    """Participation matrix p[k, i] = psi_i[k] * phi_i[k] with psi phi = 1.

    Requires left vectors; each mode is rescaled biorthogonally so its
    participations sum to one over the states.
    """
    if not pairs:
        return np.empty((0, 0), dtype=complex)
    nstates = len(pairs[0].right)
    P = np.empty((nstates, len(pairs)), dtype=complex)
    for i, pair in enumerate(pairs):
        if pair.left is None:
            raise ValueError("participation factors need left eigenvectors")
        denom = pair.left @ pair.right
        if abs(denom) < 1e-14 * (np.linalg.norm(pair.left) * np.linalg.norm(pair.right)):
            raise DegeneratePair(f"psi phi = 0 for eigenvalue {pair.s}")
        P[:, i] = (pair.left * pair.right) / denom
    return P


def reference_trajectory(provider, p_grid: Sequence[float], seed: EigenPair,
                         pencil_coords: bool = False,
                         low_mac: float = 0.98) -> ReferenceTrajectory:
    """Track one mode across a parameter grid: ``seed`` is the mode's
    pair in the full spectrum at ``p_grid[0]``, and at each later p the
    :func:`best_match` of the previous tracked pair is taken.

    A step whose best MAC falls below ``low_mac`` is flagged; this is
    the typical signature of an eigenvector discontinuity (fold) inside
    that step.
    """
    p_grid = list(p_grid)
    pairs = [seed]
    step_mac = [1.0]
    low = []
    for k, p in enumerate(p_grid[1:], start=1):
        spec = full_spectrum(provider, p, pencil_coords)
        j, m = best_match(spec, pairs[-1].right, pairs[-1].s)
        if m < low_mac:
            low.append(k)
        pairs.append(spec[j])
        step_mac.append(m)
    return ReferenceTrajectory(p_values=p_grid, pairs=pairs,
                               step_mac=step_mac, low_mac_steps=low)


def write_spectrum_csv(path, pairs: Sequence[EigenPair]) -> None:
    """Dump a spectrum as index,s_re,s_im,damping_ratio,frequency_hz."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "s_re", "s_im", "damping_ratio", "frequency_hz"])
        for i, pair in enumerate(pairs):
            w.writerow([i, repr(float(pair.s.real)), repr(float(pair.s.imag)),
                        repr(float(damping_ratio(pair.s))),
                        repr(float(frequency_hz(pair.s)))])
