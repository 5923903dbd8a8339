"""Command-line front end.

    infoloss <validate|loss|bounds|classify|sweep|report|presets>
             [path] [--n INT] [--seed U64] [--method NAME] [--nodes INT]
             [--depths A:B|A,B,...] [--workers INT] [--out FMT] [--timing]

The path argument is a JSON config file or the name of a shipped preset
(the INFOLOSS_PRESET_DIR environment variable overrides the preset
directory).  Exit codes: 0 success, 2 config or validation failure,
3 infinite-loss verdict where a finite number was requested, 4 numerical
failure.

Reports are deterministic for a fixed seed: the JSON payload carries no
timestamps unless --timing is given, and the worker count changes wall
time only, never output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import loss as loss_mod
from .bounds import BoundsReport, bounds_report
from .classify import atom_scan, classify
from .config import (
    ModelSetup,
    at_least_one,
    check_depths,
    list_presets,
    load_config_file,
    preset_dir,
    resolve_config_path,
)
from .errors import (
    ConfigError,
    DimensionTooHighError,
    InfiniteLossError,
    InfoLossError,
)
from .model import DEFAULT_N_PROBE, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFINITE = 3
EXIT_NUMERICAL = 4
_CLASSIFY_CAP = 200_000  # samples classify and atom_scan read at most


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load(args) -> ModelSetup:
    return load_config_file(resolve_config_path(args.config))


def _analysis_overrides(setup: ModelSetup, args):
    a = setup.analysis

    def given(flag, default):
        value = getattr(args, flag, None)
        return default if value is None else at_least_one(f"--{flag}", value)

    n = given("n", a.n)
    seed = args.seed if getattr(args, "seed", None) is not None else a.seed
    nodes = given("nodes", a.nodes_per_dim)
    depths = a.depths
    if getattr(args, "depths", None):
        depths = _parse_depths(args.depths, setup.pmap.dim)
    workers = given("workers", 1)
    return n, seed, nodes, depths, workers


def _parse_depths(text: str, dim: int) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ConfigError(f"--depths A:B wants A <= B, got {text!r}")
            depths = tuple(range(lo, hi + 1))
        else:
            depths = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--depths wants A:B or a comma list of integers, "
                          f"got {text!r}") from None
    return check_depths("--depths", depths, dim)


def cmd_validate(args) -> int:
    setup = _load(args)
    n_probe = DEFAULT_N_PROBE if args.n is None else at_least_one("--n", args.n)
    report = validate(setup.pmap, setup.density, n_probe=n_probe,
                      seed=args.seed if args.seed is not None else setup.analysis.seed)
    _emit(report.to_dict())
    return EXIT_OK if report.ok else EXIT_CONFIG


def cmd_classify(args) -> int:
    setup = _load(args)
    n, seed, _, _, _ = _analysis_overrides(setup, args)
    n = min(n, _CLASSIFY_CAP)
    c = classify(setup.pmap, setup.density, n, seed)
    out = c.to_dict()
    out["atoms"] = [{"y": list(y), "mass": mass} for y, mass in
                    atom_scan(setup.pmap, setup.density, n, seed,
                              classification=c)]
    _emit(out)
    return EXIT_OK


def cmd_loss(args) -> int:
    setup = _load(args)
    n, seed, nodes, _, workers = _analysis_overrides(setup, args)
    m, d, a = setup.pmap, setup.density, setup.analysis
    method = args.method
    if method == "eq5_quadrature":
        rep = loss_mod.loss_eq5_quadrature(m, d, nodes, tol=a.tol,
                                           k_max=a.k_max, seed=seed)
    else:
        rep = loss_mod.estimate(m, d, n, seed, (method,), tol=a.tol,
                                k_max=a.k_max, workers=workers)[method]
    _emit(rep.to_dict())
    return EXIT_OK


def cmd_bounds(args) -> int:
    setup = _load(args)
    n, seed, _, _, workers = _analysis_overrides(setup, args)
    rep = bounds_report(setup.pmap, setup.density, n, seed,
                        tol=setup.analysis.tol, k_max=setup.analysis.k_max,
                        workers=workers)
    _emit(rep.to_dict())
    return EXIT_OK


def cmd_sweep(args) -> int:
    setup = _load(args)
    n, seed, _, depths, workers = _analysis_overrides(setup, args)
    sw = loss_mod.partition_sweep(setup.pmap, setup.density, depths, n, seed,
                                  tol=setup.analysis.tol,
                                  k_max=setup.analysis.k_max, workers=workers)
    print("depth,loss_bits,stderr_bits")
    for depth, lb, se in zip(sw.depths, sw.losses_bits, sw.stderrs_bits):
        print(f"{depth},{lb!r},{se!r}")
    return EXIT_OK


_REPORT_SWEEP_CAP = 200_000


def build_report(setup: ModelSetup, n: int, seed: int, nodes: int,
                 depths, workers: int, timing: bool = False) -> dict:
    """The full analysis document: validation, classification, all loss
    routes, bounds and the partition sweep (finite maps only).  The
    Monte-Carlo estimators share one pass over the sample stream."""
    t0 = time.monotonic()
    m, d, a = setup.pmap, setup.density, setup.analysis
    warnings: list[str] = []
    vrep = validate(m, d, seed=seed)
    if not vrep.ok:
        warnings.extend(vrep.failures)
    n_classify = min(n, _CLASSIFY_CAP)
    cls = classify(m, d, n_classify, seed)
    atoms = atom_scan(m, d, n_classify, seed, classification=cls)
    out = {
        "name": setup.name,
        "model_digest": setup.digest,
        "analysis": {"n": n, "seed": seed, "nodes_per_dim": nodes,
                     "depths": list(depths), "k_max": a.k_max, "tol": a.tol},
        "validation": vrep.to_dict(),
        "classification": cls.to_dict(),
        "atoms": [{"y": list(y), "mass": mass} for y, mass in atoms],
        "loss": None,
        "bounds": None,
        "sweep": None,
    }
    if cls.verdict == "Infinite":
        warnings.append("loss is infinite; finite estimators were skipped")
    else:
        est = loss_mod.estimate(
            m, d, n, seed, loss_mod.ESTIMATORS, depths=depths,
            sweep_n=min(n, _REPORT_SWEEP_CAP), tol=a.tol, k_max=a.k_max,
            workers=workers, classification=cls)
        losses = {"eq5_mc": est["eq5_mc"].to_dict()}
        if est["eq5_mc"].truncated:
            warnings.append("family enumeration truncated in eq5_mc")
        if m.dim <= 2:
            losses["eq5_quadrature"] = loss_mod.loss_eq5_quadrature(
                m, d, nodes, tol=a.tol, k_max=a.k_max,
                classification=cls, seed=seed).to_dict()
        else:
            warnings.append("quadrature skipped: dimension exceeds 2")
        losses["corollary1"] = est["corollary1"].to_dict()
        losses["branch_posterior"] = est["branch_posterior"].to_dict()
        out["loss"] = losses
        out["bounds"] = BoundsReport.from_tally(m, est["bounds"], n,
                                                seed).to_dict()
        out["sweep"] = est["sweep"].to_dict()
    out["warnings"] = warnings
    if timing:
        out["wall_time_s"] = time.monotonic() - t0
    return out


def _report_text(rep: dict) -> str:
    lines = [f"model: {rep['name']}  (digest {rep['model_digest'][:12]})",
             f"validation: {'ok' if rep['validation']['ok'] else 'FAILED'}",
             f"classification: {rep['classification']['verdict']}"
             + (f" ({rep['classification']['reason']})"
                if rep['classification']['reason'] != 'none' else "")]
    for atom in rep["atoms"]:
        lines.append(f"  atom at {atom['y']}: mass {atom['mass']:.4f}")
    if rep["loss"]:
        for method, lr in sorted(rep["loss"].items()):
            lines.append(f"loss[{method}]: {lr['loss_bits']:.4f} "
                         f"± {lr['stderr_bits']:.4f} bits")
    if rep["bounds"]:
        b = rep["bounds"]
        flag = " (lower bounds; true values infinite)" if \
            b["infinite_flags"]["e_log_card"] else ""
        lines.append(
            f"bounds: E[log|pre|]={b['e_log_card_bits']:.4f} <= "
            f"logE[|pre|]={b['log_e_card_bits']:.4f} <= "
            f"max={b['max_log_card_bits']:.4f}{flag}; H(W)={b['h_W_bits']:.4f}")
    if rep["sweep"]:
        pairs = ", ".join(f"{dep}:{lb:.3f}" for dep, lb in
                          zip(rep["sweep"]["depths"], rep["sweep"]["losses_bits"]))
        lines.append(f"sweep (depth:bits): {pairs}")
    for w in rep["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def cmd_report(args) -> int:
    setup = _load(args)
    n, seed, nodes, depths, workers = _analysis_overrides(setup, args)
    rep = build_report(setup, n, seed, nodes, depths, workers,
                       timing=args.timing)
    if args.out == "text":
        print(_report_text(rep))
    elif args.out == "csv":
        print("key,value")
        for key, value in _flatten(rep):
            print(f"{key},{value!r}" if isinstance(value, str)
                  else f"{key},{value}")
    else:
        _emit(rep)
    return EXIT_OK


def cmd_presets(args) -> int:
    for name in list_presets():
        print(f"{name}\t{preset_dir() / (name + '.json')}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="infoloss",
        description="Information loss of piecewise maps: estimates, "
                    "bounds, classification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="JSON config path or preset name")
        p.add_argument("--n", type=int, default=None, help="sample budget")
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads (wall time only, never results)")

    p = sub.add_parser("validate", help="check a model before analysis")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("loss", help="estimate the information loss")
    common(p)
    p.add_argument("--method", default="eq5_mc",
                   choices=["eq5_mc", "eq5_quadrature", "corollary1",
                            "branch_posterior"])
    p.add_argument("--nodes", type=int, default=None,
                   help="quadrature nodes per dimension")
    p.set_defaults(fn=cmd_loss)

    p = sub.add_parser("bounds", help="upper bounds and H(W)")
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("classify", help="finite/infinite loss verdict")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sweep", help="partition sweep as CSV")
    common(p)
    p.add_argument("--depths", default=None, help="A:B inclusive, or comma list")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="full analysis report")
    common(p)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--depths", default=None)
    p.add_argument("--out", default="json", choices=["json", "csv", "text"])
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the payload (breaks "
                        "byte-for-byte reproducibility)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("presets", help="list shipped presets")
    p.set_defaults(fn=cmd_presets)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DimensionTooHighError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfiniteLossError as err:
        print(json.dumps(err.classification.to_dict(), sort_keys=True,
                         indent=2), file=sys.stderr)
        print("error: information loss is infinite; no finite estimate",
              file=sys.stderr)
        return EXIT_INFINITE
    except InfoLossError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
