"""Command-line front end.

Subcommands: ``track`` (continuation run), ``reference`` (repeated
dense eigendecomposition over the same grid), ``compare`` (error report
between two trajectory CSVs), and ``spectrum`` (one-shot spectrum
dump).  A JSON config file can supply any long-option value; explicitly
passed flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from . import models, spectrum as spec_mod, tracker
from .dae import ModelPencilProvider
from .errors import AmbiguousTarget, EigtrackError, TrackingAborted
from .spectrum import best_match, damping_ratio, full_spectrum
from .tracker import AdaptConfig, NewtonConfig, TrackerConfig, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORTED = 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eigtrack")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", help="built-in model name: companion | multimachine")
        p.add_argument("--model-spec", help="JSON file with model parameters")
        p.add_argument("--manifest", help="pencil-sequence manifest file")
        p.add_argument("--param", help="swept parameter name")
        p.add_argument("--form", choices=["pencil", "reduced"])

    def add_sweep_args(p):
        p.add_argument("--from", dest="p_init", type=float)
        p.add_argument("--to", dest="p_fin", type=float)
        p.add_argument("--dp", type=float)

    def add_target_args(p):
        p.add_argument("--target-index", type=int)
        p.add_argument("--target-box", help="re0,re1,im0,im1")
        p.add_argument("--target-ref", help="JSON file with a reference eigenvector")

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", help="output path")

    p = sub.add_parser("track", help="run continuation tracking")
    add_model_args(p)
    add_sweep_args(p)
    add_target_args(p)
    add_common(p)
    p.add_argument("--integrator", choices=["fem", "rk4", "none"])
    p.add_argument("--corrector", action="store_true", default=None)
    p.add_argument("--corrector-tol", type=float)
    p.add_argument("--adaptive", action="store_true", default=None)
    p.add_argument("--eps", type=float, help="imaginary perturbation size")
    p.add_argument("--reinit", choices=["never", "on_failure"],
                   help="a step failing at the minimum dp aborts (never, "
                   "the default) or restarts from a full spectrum "
                   "(on_failure; crosses defective folds)")
    p.add_argument("--json-out", help="also write a JSON trajectory here")
    p.add_argument("--vectors", action="store_true", default=None,
                   help="embed eigenvectors in the JSON output")

    p = sub.add_parser("reference", help="repeated dense eigendecomposition")
    add_model_args(p)
    add_sweep_args(p)
    add_target_args(p)
    add_common(p)

    p = sub.add_parser("compare", help="compare a trajectory against a reference")
    p.add_argument("track_csv")
    p.add_argument("reference_csv")
    p.add_argument("--config")
    p.add_argument("--max-rel-error", type=float)
    p.add_argument("--max-dzeta", type=float)

    p = sub.add_parser("spectrum", help="dump the full spectrum at one parameter value")
    add_model_args(p)
    add_common(p)
    p.add_argument("--at", type=float, help="parameter value (default: sweep start)")
    return ap


def merge_config(args: argparse.Namespace) -> dict:
    """Config-file values fill in anything not given on the command line."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    merged = dict(cfg)
    for key, val in vars(args).items():
        if key == "config":
            continue
        if val is not None:
            merged[key] = val
    return merged


def build_provider(cfg: dict):
    manifest = cfg.get("manifest")
    model_name = cfg.get("model")
    if (manifest is None) == (model_name is None):
        raise EigtrackError("exactly one of --model / --manifest is required")
    if manifest is not None:
        return models.load_pencil_sequence(manifest)
    form = cfg.get("form", "pencil")
    param = cfg.get("param")
    if model_name == "companion":
        model = models.make_companion_fold(
            c=float(cfg.get("damping", 2.0)),
            p_init=cfg.get("p_init", 2.0), p_fin=cfg.get("p_fin", 0.5))
        if param not in (None, "p"):
            raise EigtrackError("companion model sweeps parameter 'p'")
        return ModelPencilProvider(model, form=form)
    if model_name == "multimachine":
        mspec = (models.load_model_spec(cfg["model_spec"])
                 if cfg.get("model_spec") else models.MultiMachineSpec())
        model = models.make_multimachine(
            mspec, param=param or "droop",
            p_init=cfg.get("p_init", 0.2), p_fin=cfg.get("p_fin", 0.02))
        return ModelPencilProvider(model, form=form)
    raise EigtrackError(f"unknown model {model_name!r}")


def spectrum_sort_key(s: complex):
    return (-s.real, -abs(s.imag), -s.imag)


def select_target(pairs, cfg: dict) -> int:
    """Resolve the target selector to an index into ``pairs``."""
    selectors = [k for k in ("target_index", "target_box", "target_ref")
                 if cfg.get(k) is not None]
    if len(selectors) != 1:
        raise EigtrackError("exactly one target selector is required "
                            "(--target-index | --target-box | --target-ref)")
    if cfg.get("target_index") is not None:
        order = sorted(range(len(pairs)), key=lambda i: spectrum_sort_key(pairs[i].s))
        idx = int(cfg["target_index"])
        if not 0 <= idx < len(order):
            raise EigtrackError(f"target index {idx} out of range 0..{len(order) - 1}")
        return order[idx]
    if cfg.get("target_box") is not None:
        try:
            re0, re1, im0, im1 = (float(t) for t in str(cfg["target_box"]).split(","))
        except ValueError:
            raise EigtrackError("--target-box wants re0,re1,im0,im1")
        center = complex((re0 + re1) / 2, (im0 + im1) / 2)
        scored = []
        for i, pair in enumerate(pairs):
            s = pair.s
            if re0 <= s.real <= re1 and im0 <= s.imag <= im1:
                score = (1.0 + damping_ratio(s)) / (1.0 + abs(s - center))
                scored.append((score, i))
        if not scored:
            raise EigtrackError("no eigenvalue inside the target box")
        scored.sort(reverse=True)
        if len(scored) > 1 and scored[0][0] - scored[1][0] < 1e-9:
            raise AmbiguousTarget(
                "two eigenvalues score identically for the target box")
        return scored[0][1]
    with open(cfg["target_ref"]) as fh:
        data = json.load(fh)
    ref = np.array(data["phi_re"]) + 1j * np.array(data.get("phi_im", 0.0))
    return best_match(pairs, ref)[0]


def tracker_config(cfg: dict) -> TrackerConfig:
    for key in ("p_init", "p_fin", "dp"):
        if cfg.get(key) is None:
            raise EigtrackError(f"--{'from' if key == 'p_init' else 'to' if key == 'p_fin' else 'dp'} is required")
    corrector = NewtonConfig(tol=float(cfg.get("corrector_tol", 1e-10))) \
        if cfg.get("corrector") else None
    adapt = AdaptConfig(enabled=bool(cfg.get("adaptive", False)))
    span = float(cfg["p_fin"]) - float(cfg["p_init"])
    dp = abs(float(cfg["dp"])) * (1 if span >= 0 else -1) or float(cfg["dp"])
    return TrackerConfig(
        p_init=float(cfg["p_init"]), p_fin=float(cfg["p_fin"]), dp_init=dp,
        predictor=cfg.get("integrator", "fem"),
        corrector=corrector, adapt=adapt,
        epsilon_imag=float(cfg.get("eps", 1e-6)),
        reinit_policy=cfg.get("reinit", "never"),
    )


def grid_from(cfg: dict) -> np.ndarray:
    p0, p1, dp = float(cfg["p_init"]), float(cfg["p_fin"]), abs(float(cfg["dp"]))
    if p0 == p1 or dp == 0:
        return np.array([p0])
    n = int(round(abs(p1 - p0) / dp))
    return np.linspace(p0, p1, max(n, 1) + 1)


def cmd_track(cfg: dict) -> int:
    provider = build_provider(cfg)
    tc = tracker_config(cfg)
    pencil = provider.r != provider.n
    pairs = full_spectrum(provider, tc.p_init, pencil_coords=pencil)
    idx = select_target(pairs, cfg)
    E, A = provider.matrices(tc.p_init)
    init = tracker.init_from_eigenpair(E, A, pairs[idx].s, pairs[idx].right,
                                       p=tc.p_init)
    out = cfg.get("out", "trajectory.csv")
    try:
        traj = tracker.track(provider, init, tc)
    except TrackingAborted as exc:
        if exc.trajectory is not None:
            exc.trajectory.to_csv(out)
        print(f"tracking aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    traj.to_csv(out)
    if cfg.get("json_out"):
        traj.to_json(cfg["json_out"], include_vectors=bool(cfg.get("vectors")))
    print(f"wrote {len(traj)} records to {out}")
    return EXIT_OK


def cmd_reference(cfg: dict) -> int:
    provider = build_provider(cfg)
    for key in ("p_init", "p_fin", "dp"):
        if cfg.get(key) is None:
            raise EigtrackError("--from/--to/--dp are required")
    grid = grid_from(cfg)
    pencil = provider.r != provider.n
    pairs = full_spectrum(provider, grid[0], pencil_coords=pencil)
    seed = select_target(pairs, cfg)
    ref = spec_mod.reference_trajectory(provider, grid, seed,
                                        pencil_coords=pencil)
    traj = Trajectory()
    for k, (p, pair) in enumerate(zip(ref.p_values, ref.pairs)):
        E, A = provider.matrices(p)
        flags = {"low_mac"} if k in ref.low_mac_steps else set()
        traj.append(tracker.TrajectoryPoint(
            p=p, s=pair.s, phi=pair.right,
            residual=tracker.residual(E, A, pair.s, pair.right),
            dp_used=(0.0 if k == 0 else p - ref.p_values[k - 1]),
            corrector_iters=0, flags=flags))
    out = cfg.get("out", "reference.csv")
    traj.to_csv(out)
    if ref.low_mac_steps:
        print(f"warning: low-MAC pairing at steps {ref.low_mac_steps} "
              "(possible fold/eigenvector discontinuity)", file=sys.stderr)
    print(f"wrote {len(traj)} records to {out}")
    return EXIT_OK


def cmd_compare(cfg: dict) -> int:
    a = Trajectory.from_csv(cfg["track_csv"])
    b = Trajectory.from_csv(cfg["reference_csv"])
    bp = b.p_values
    rel_errors: List[float] = []
    dzetas: List[float] = []
    rows = []
    for pt in a:
        j = int(np.argmin(np.abs(bp - pt.p)))
        if abs(bp[j] - pt.p) > 1e-9 * max(1.0, abs(pt.p)):
            continue
        s_r = b[j].s
        rel = abs(pt.s - s_r) / abs(s_r) if s_r != 0 else abs(pt.s - s_r)
        dz = 100.0 * (damping_ratio(pt.s) - damping_ratio(s_r))
        rel_errors.append(rel)
        dzetas.append(dz)
        rows.append((pt.p, rel, dz))
    if not rows:
        print("no overlapping parameter values", file=sys.stderr)
        return EXIT_CONFIG
    for p, rel, dz in rows:
        print(f"p={p:.6g}  rel_error={rel:.3e}  dzeta={dz:+.5f}%")
    print(f"max rel_error={max(rel_errors):.3e}  mean={np.mean(rel_errors):.3e}")
    print(f"max |dzeta|={max(abs(d) for d in dzetas):.5f}%")
    bad = False
    if cfg.get("max_rel_error") is not None:
        bad |= max(rel_errors) > float(cfg["max_rel_error"])
    if cfg.get("max_dzeta") is not None:
        bad |= max(abs(d) for d in dzetas) > float(cfg["max_dzeta"])
    return EXIT_ABORTED if bad else EXIT_OK


def cmd_spectrum(cfg: dict) -> int:
    provider = build_provider(cfg)
    at = cfg.get("at")
    if at is None:
        at = cfg.get("p_init", 0.0)
    pairs = full_spectrum(provider, float(at))
    pairs.sort(key=lambda pr: spectrum_sort_key(pr.s))
    out = cfg.get("out", "spectrum.csv")
    spec_mod.write_spectrum_csv(out, pairs)
    print(f"wrote {len(pairs)} eigenvalues to {out}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        handler = {
            "track": cmd_track,
            "reference": cmd_reference,
            "compare": cmd_compare,
            "spectrum": cmd_spectrum,
        }[args.command]
        return handler(cfg)
    except TrackingAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    except (EigtrackError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
