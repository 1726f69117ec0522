"""Dense-oracle utilities: full spectra, MAC pairing, participation
factors, and reference trajectories by repeated eigendecomposition."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import DegeneratePair, ZeroVector
from .linalg import eig_dense

__all__ = [
    "EigenPair",
    "ReferenceTrajectory",
    "full_spectrum",
    "mac",
    "pair_by_mac",
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
    spectra: List[List[EigenPair]]
    tracked_index: List[int]
    step_mac: List[float]
    low_mac_steps: List[int]

    def tracked_values(self) -> np.ndarray:
        return np.array([spec[i].s for spec, i in zip(self.spectra, self.tracked_index)])


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


def pair_by_mac(prev: Sequence[EigenPair], next: Sequence[EigenPair]):
    """Greedy maximum-MAC matching from ``prev`` entries to ``next``.

    Ties (MAC difference below 1e-12) are broken by smallest eigenvalue
    distance.  Returns a list the length of ``prev``; unmatched entries
    (when ``next`` is shorter) are None.
    """
    if not len(prev) or not len(next):
        raise ValueError("pair_by_mac needs nonempty spectra")
    nprev, nnext = len(prev), len(next)
    macs = np.array([[mac(a.right, b.right) for b in next] for a in prev])
    dist = np.array([[abs(a.s - b.s) for b in next] for a in prev])
    mapping: List[Optional[int]] = [None] * nprev
    free_prev = set(range(nprev))
    free_next = set(range(nnext))
    while free_prev and free_next:
        best = None  # (mac, -distance, i, j)
        for i in free_prev:
            for j in free_next:
                cand = (macs[i, j], -dist[i, j], i, j)
                if best is None:
                    best = cand
                elif cand[0] > best[0] + 1e-12:
                    best = cand
                elif abs(cand[0] - best[0]) <= 1e-12 and cand[1] > best[1]:
                    best = cand
        _, _, i, j = best
        mapping[i] = j
        free_prev.remove(i)
        free_next.remove(j)
    return mapping


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


def reference_trajectory(provider, p_grid: Sequence[float], seed_index: int,
                         pencil_coords: bool = False,
                         low_mac: float = 0.98) -> ReferenceTrajectory:
    """Track one mode across a parameter grid by chained MAC pairing.

    A step whose best-MAC match for the tracked mode falls below
    ``low_mac`` is flagged; this is the typical signature of an
    eigenvector discontinuity (fold) inside that step.
    """
    p_grid = list(p_grid)
    spectra = [full_spectrum(provider, p_grid[0], pencil_coords)]
    idx = [seed_index]
    step_mac = [1.0]
    low = []
    for k, p in enumerate(p_grid[1:], start=1):
        spec = full_spectrum(provider, p, pencil_coords)
        mapping = pair_by_mac(spectra[-1], spec)
        j = mapping[idx[-1]]
        if j is None:
            j = int(np.argmin([abs(e.s - spectra[-1][idx[-1]].s) for e in spec]))
        m = mac(spectra[-1][idx[-1]].right, spec[j].right)
        if m < low_mac:
            low.append(k)
        spectra.append(spec)
        idx.append(j)
        step_mac.append(m)
    return ReferenceTrajectory(p_values=p_grid, spectra=spectra,
                               tracked_index=idx, step_mac=step_mac,
                               low_mac_steps=low)


def write_spectrum_csv(path, pairs: Sequence[EigenPair]) -> None:
    """Dump a spectrum as index,s_re,s_im,damping_ratio,frequency_hz."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "s_re", "s_im", "damping_ratio", "frequency_hz"])
        for i, pair in enumerate(pairs):
            w.writerow([i, repr(float(pair.s.real)), repr(float(pair.s.imag)),
                        repr(float(damping_ratio(pair.s))),
                        repr(float(frequency_hz(pair.s)))])
