"""Each correctness check accepts the real trajectories and rejects a
corrupted one: a shifted eigenvalue, a hop to a neighbouring mode, a
broken normalisation, a short sweep, or a missing fold or jump flag."""

import copy

import numpy as np
import pytest
import scipy.linalg

import checks
import workloads

ORACLE_MESSAGE = {
    "fold_suite": "from a root",
    "droop_pencil": "from the pencil spectrum",
    "governor_jump": "from the pencil spectrum",
    "synthetic_sparse": "from ARPACK",
}


@pytest.fixture(scope="session")
def runs():
    """One job per workload and its checker, shared by every test."""
    out = {}
    for name, build in workloads.WORKLOADS.items():
        out[name] = (workloads.run(build()), checks.make_checker(name, build))
    return out


def corrupted(runs, name):
    results, checker = runs[name]
    return copy.deepcopy(results), checker


def early_corrected(traj):
    """First corrected record with corrected neighbours on both sides.

    Early in every sweep, so far from the fold at p=1 where the two
    companion eigenvectors nearly coincide.
    """
    idx = {i for i, pt in enumerate(traj) if checks.corrected(i, pt)}
    return min(i for i in idx if i - 1 in idx and i + 1 in idx)


def neighbour_pair(E, A, s):
    """The eigenpair of (A, E) nearest s other than s itself, phi^T phi = 1."""
    E = checks.dense(E)
    A = checks.dense(A)
    w, V = scipy.linalg.eig(A, E)
    finite = np.isfinite(w)
    w, V = w[finite], V[:, finite]
    dist = np.abs(w - s)
    dist[dist < 1e-6 * max(1.0, abs(s))] = np.inf
    j = int(np.argmin(dist))
    phi = V[:, j] / np.sqrt(V[:, j] @ V[:, j])
    return complex(w[j]), phi


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_real_runs_pass(runs, name):
    results, checker = runs[name]
    assert all(r.trajectory is not None for r in results)
    assert checker.check(results) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shifted_eigenvalue_rejected(runs, name):
    results, checker = corrupted(runs, name)
    traj = results[0].trajectory
    traj[early_corrected(traj)].s += 1e-5
    problems = checker.check(results)
    assert any(ORACLE_MESSAGE[name] in msg for msg in problems), problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_hop_to_neighbouring_mode_rejected(runs, name):
    results, checker = corrupted(runs, name)
    traj = results[0].trajectory
    pt = traj[early_corrected(traj)]
    E, A = checker.matrices(pt.p)
    pt.s, pt.phi = neighbour_pair(E, A, pt.s)
    problems = checker.check(results)
    # the neighbour is a true eigenpair, so only the MAC test can see the hop
    assert problems and all("mode hop" in msg for msg in problems), problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_broken_normalisation_rejected(runs, name):
    results, checker = corrupted(runs, name)
    traj = results[0].trajectory
    traj[early_corrected(traj)].phi *= 1.001
    problems = checker.check(results)
    assert any("phi^T phi" in msg for msg in problems), problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_sweep_rejected(runs, name):
    results, checker = corrupted(runs, name)
    results[0].trajectory.points.pop()
    problems = checker.check(results)
    assert any("last record" in msg for msg in problems), problems


def test_missing_fold_flag_rejected(runs):
    results, checker = corrupted(runs, "fold_suite")
    down = next(r for r in results if r.sweep.name == "down")
    for pt in down.trajectory:
        pt.flags.discard("fold_detected")
    problems = checker.check(results)
    assert problems == ["down: no fold flagged near p=1"]


def test_missing_jump_flag_rejected(runs):
    results, checker = corrupted(runs, "governor_jump")
    for pt in results[0].trajectory:
        pt.flags.discard("jump_detected")
    problems = checker.check(results)
    assert problems == ["p_max_0: no jump flagged within 0.01 below p=0.8"]


def test_failed_sweep_is_not_checked(runs):
    results, checker = corrupted(runs, "fold_suite")
    results[0] = workloads.SweepResult(results[0].sweep, error="TrackingAborted: x")
    assert checker.check(results) == []
