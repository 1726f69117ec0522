"""Command-line interface: subcommands, config merging, exit codes."""

import json

import numpy as np
import pytest

from eigtrack.cli import EXIT_ABORTED, EXIT_CONFIG, EXIT_OK, main
from eigtrack.linalg import as_csc, write_matrix_market
from eigtrack.models import companion_eigenvalues
from eigtrack.tracker import Trajectory


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def write_manifest(tmp_path, p_values, A_of_p):
    """Manifest of 2x2 pencils E = I, A = A_of_p(p) at each listed p."""
    lines = []
    for k, p in enumerate(p_values):
        write_matrix_market(tmp_path / f"E{k}.mtx", as_csc(np.eye(2)))
        write_matrix_market(tmp_path / f"A{k}.mtx", as_csc(A_of_p(p)))
        lines.append(f"{float(p)!r}\tE{k}.mtx\tA{k}.mtx")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def write_constant_manifest(tmp_path, p_values, a_value=-2.0):
    return write_manifest(tmp_path, p_values,
                          lambda p: a_value * np.eye(2) + np.diag([0.0, 1.0]))


class TestTrack:
    def test_companion_sweep_reaches_endpoint(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "0.5", "--dp", "0.01",
                   "--target-index", "0", "--integrator", "rk4",
                   "--corrector", "--adaptive", "--reinit", "on_failure",
                   "--out", str(out)])
        assert rc == EXIT_OK
        traj = Trajectory.from_csv(out)
        last = traj[-1]
        assert last.p == pytest.approx(0.5, abs=1e-12)
        roots = companion_eigenvalues(2.0, 0.5)
        assert min(abs(last.s - r) for r in roots) <= 1e-6

    def test_zero_length_sweep_single_record(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "2", "--dp", "0.1",
                   "--target-index", "0", "--corrector", "--out", str(out)])
        assert rc == EXIT_OK
        assert len(Trajectory.from_csv(out)) == 1

    def test_json_output_with_vectors(self, tmp_path):
        out = tmp_path / "traj.csv"
        jout = tmp_path / "traj.json"
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1.8", "--dp", "0.1",
                   "--target-index", "0", "--corrector",
                   "--out", str(out), "--json-out", str(jout), "--vectors"])
        assert rc == EXIT_OK
        data = json.loads(jout.read_text())
        assert isinstance(data, list) and data
        assert "phi_re" in data[0]

    def test_target_box_selects_inside(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1.9", "--dp", "0.1",
                   "--target-box=-1.5,-0.5,0.5,1.5",
                   "--corrector", "--out", str(out)])
        assert rc == EXIT_OK
        traj = Trajectory.from_csv(out)
        assert traj[0].s.imag > 0.5

    def test_symmetric_box_is_ambiguous(self, tmp_path):
        # box covering the conjugate pair with a real-axis center: both
        # members score identically
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1.9", "--dp", "0.1",
                   "--target-box=-2,0,-2,2",
                   "--corrector", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_CONFIG

    def test_target_ref_follows_eigenvector(self, tmp_path):
        from eigtrack.dae import ModelPencilProvider
        from eigtrack.models import make_companion_fold
        from eigtrack.spectrum import full_spectrum

        prov = ModelPencilProvider(make_companion_fold(), form="reduced")
        pairs = full_spectrum(prov, 2.0)
        want = max(pairs, key=lambda pr: pr.s.imag)
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({
            "phi_re": list(want.right.real), "phi_im": list(want.right.imag)}))
        out = tmp_path / "traj.csv"
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1.9", "--dp", "0.1",
                   "--target-ref", str(ref), "--corrector", "--out", str(out)])
        assert rc == EXIT_OK
        assert Trajectory.from_csv(out)[0].s == pytest.approx(want.s, abs=1e-8)

    def test_target_ref_wrong_length_is_config_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"phi_re": [1.0, 0.0, 0.0]}))
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1.9", "--dp", "0.1",
                   "--target-ref", str(ref), "--corrector",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "reference vector has length 3" in err
        assert "eigenvectors have length 2" in err

    def test_off_grid_step_aborts_with_partial_csv(self, tmp_path, capsys):
        # Step halving at the fold asks the tabulated provider for a p
        # between its grid points: a typed abort, not a config error.
        # Companion fold pencil A = [[0, 1], [-p, -2]] on a 31-point grid.
        manifest = write_manifest(tmp_path, np.linspace(2, 0.5, 31),
                                  lambda p: np.array([[0.0, 1.0], [-p, -2.0]]))
        out = tmp_path / "traj.csv"
        rc = main(["track", "--manifest", str(manifest),
                   "--from", "2", "--to", "0.5", "--dp", "-0.05",
                   "--target-index", "0", "--corrector",
                   "--reinit", "on_failure", "--out", str(out)])
        assert rc == EXIT_ABORTED
        assert "OffGrid" in capsys.readouterr().err
        traj = Trajectory.from_csv(out)
        assert traj[0].p == 2.0
        assert len(traj) > 1
        assert np.all(np.diff(traj.p_values) < 0)
        assert traj[-1].p > 1.0

    def test_swept_spec_out_of_range_aborts_with_partial_csv(self, tmp_path,
                                                             capsys):
        # the RK4 k4 stage samples z = 1.0 and its derivative stencil
        # z = 1 + h_p, outside the spec's [0, 1]: a typed abort
        out = tmp_path / "traj.csv"
        rc = main(["track", "--model", "multimachine", "--param", "z",
                   "--from", "0.9", "--to", "1.0", "--dp", "0.01",
                   "--integrator", "rk4", "--corrector",
                   "--target-box=-1,0,0.05,2", "--out", str(out)])
        assert rc == EXIT_ABORTED
        assert "InvalidSpec" in capsys.readouterr().err
        traj = Trajectory.from_csv(out)
        assert traj[0].p == 0.9
        assert len(traj) > 1

    def test_no_selector_is_config_error(self, tmp_path):
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1", "--dp", "0.1",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_CONFIG

    def test_newton_only_without_corrector_is_config_error(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1.5", "--dp", "-0.1",
                   "--target-index", "0", "--integrator", "none",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_model_is_config_error(self, tmp_path):
        rc = main(["track", "--model", "nonsense",
                   "--from", "2", "--to", "1", "--dp", "0.1",
                   "--target-index", "0", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_CONFIG

    def test_model_and_manifest_both_given_is_config_error(self, tmp_path):
        manifest = write_constant_manifest(tmp_path, [0.0, 1.0])
        rc = main(["track", "--model", "companion", "--manifest", str(manifest),
                   "--from", "0", "--to", "1", "--dp", "0.5",
                   "--target-index", "0", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_CONFIG

    def test_missing_config_file_is_config_error(self, tmp_path):
        rc = main(["track", "--config", str(tmp_path / "absent.json"),
                   "--target-index", "0"])
        assert rc == EXIT_CONFIG


class TestConfigMerge:
    def test_file_supplies_missing_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "companion", "p_init": 2.0, "p_fin": 1.5,
            "dp": 0.1, "target_index": 0, "corrector": True,
            "out": str(tmp_path / "from_file.csv")}))
        rc = main(["track", "--config", str(cfg)])
        assert rc == EXIT_OK
        assert (tmp_path / "from_file.csv").exists()

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "companion", "p_init": 2.0, "p_fin": 1.5,
            "dp": 0.1, "target_index": 0, "corrector": True,
            "out": str(tmp_path / "from_file.csv")}))
        override = tmp_path / "from_flag.csv"
        rc = main(["track", "--config", str(cfg), "--out", str(override)])
        assert rc == EXIT_OK
        assert override.exists()
        assert not (tmp_path / "from_file.csv").exists()


class TestReference:
    def test_constant_manifest_constant_trajectory(self, tmp_path):
        manifest = write_constant_manifest(tmp_path, [0.0, 0.5, 1.0])
        out = tmp_path / "ref.csv"
        rc = main(["reference", "--manifest", str(manifest),
                   "--from", "0", "--to", "1", "--dp", "0.5",
                   "--target-index", "0", "--out", str(out)])
        assert rc == EXIT_OK
        traj = Trajectory.from_csv(out)
        assert len(traj) == 3
        s_vals = [pt.s for pt in traj]
        assert np.allclose(s_vals, s_vals[0])

    def test_fold_crossing_warns_low_mac(self, tmp_path, capsys):
        out = tmp_path / "ref.csv"
        rc = main(["reference", "--model", "companion",
                   "--from", "2", "--to", "0.56", "--dp", "0.16",
                   "--target-index", "0", "--out", str(out)])
        assert rc == EXIT_OK
        assert "low-MAC" in capsys.readouterr().err

    def test_one_dense_spectrum_per_grid_point(self, tmp_path, monkeypatch):
        # the README companion example: the first grid point's spectrum
        # selects the target and seeds the reference, computed once
        from eigtrack import spectrum

        calls = []
        eig = spectrum.eig_dense
        monkeypatch.setattr(spectrum, "eig_dense",
                            lambda *a, **k: calls.append(1) or eig(*a, **k))
        out = tmp_path / "ref.csv"
        rc = main(["reference", "--model", "companion",
                   "--from", "2", "--to", "0.5", "--dp", "0.01",
                   "--target-index", "0", "--out", str(out)])
        assert rc == EXIT_OK
        assert len(Trajectory.from_csv(out)) == 151
        assert len(calls) == 151


class TestCompare:
    def run_track(self, tmp_path, name):
        out = tmp_path / name
        rc = main(["track", "--model", "companion",
                   "--from", "2", "--to", "1.5", "--dp", "0.1",
                   "--target-index", "0", "--corrector", "--eps", "0",
                   "--out", str(out)])
        assert rc == EXIT_OK
        return out

    def test_identical_trajectories_zero_error(self, tmp_path, capsys):
        a = self.run_track(tmp_path, "a.csv")
        rc = main(["compare", str(a), str(a), "--max-rel-error", "1e-12"])
        assert rc == EXIT_OK
        assert "max rel_error=0.000e+00" in capsys.readouterr().out

    def test_threshold_violation_exits_aborted(self, tmp_path):
        a = self.run_track(tmp_path, "a.csv")
        ref = tmp_path / "shifted.csv"
        traj = Trajectory.from_csv(a)
        for pt in traj:
            pt.s = pt.s + 0.01
        traj.to_csv(ref)
        rc = main(["compare", str(a), str(ref), "--max-rel-error", "1e-6"])
        assert rc == EXIT_ABORTED

    def test_disjoint_grids_config_error(self, tmp_path, capsys):
        a = self.run_track(tmp_path, "a.csv")
        traj = Trajectory.from_csv(a)
        for pt in traj:
            pt.p = pt.p + 100.0
        moved = tmp_path / "moved.csv"
        traj.to_csv(moved)
        rc = main(["compare", str(a), str(moved)])
        assert rc == EXIT_CONFIG


class TestSpectrum:
    def test_schema_and_sorting(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--model", "companion", "--at", "4.0",
                   "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["index", "s_re", "s_im", "damping_ratio", "frequency_hz"]
        assert len(rows) == 2
        # slowest-decaying first
        assert float(rows[0][1]) >= float(rows[1][1])

    def test_multimachine_spectrum_size(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--model", "multimachine", "--form", "reduced",
                   "--at", "0.05", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = read_rows(out)
        assert len(rows) == 18
