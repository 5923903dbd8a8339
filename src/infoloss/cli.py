"""Command-line front end: it parses the arguments, calls the library
and prints the result; it computes nothing of its own.

    infoloss <validate|loss|bounds|classify|sweep|report|presets>
             [path] [--n INT] [--seed U64] [--method NAME] [--nodes INT]
             [--depths A:B|A,B,...] [--workers INT] [--out FMT] [--timing]

The path argument is a JSON config file or the name of a shipped preset
(the INFOLOSS_PRESET_DIR environment variable overrides the preset
directory).  Exit codes: 0 success, 2 config or validation failure,
3 infinite-loss verdict where a finite number was requested, 4 numerical
failure.

``report`` prints ``report.build_report``; ``loss``, ``bounds`` and
``sweep`` print its sections, one ``loss.estimate`` estimator each.
Reports are deterministic for a fixed seed: the JSON payload carries no
timestamps unless --timing is given (stamped here, around the library
call), and the worker count changes wall time only, never output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import loss as loss_mod
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
from .report import _CLASSIFY_CAP, _REPORT_SWEEP_CAP, build_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFINITE = 3
EXIT_NUMERICAL = 4


def _emit(obj, file=None) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2), file=file)


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
    if getattr(args, "depths", None) is not None:
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


def cmd_estimate(args) -> int:
    """``loss``, ``bounds`` and ``sweep``: the estimator ``args.method``
    names, printed as the report's section (the sweep as CSV, over at
    most the report's ``_REPORT_SWEEP_CAP`` samples)."""
    setup = _load(args)
    n, seed, nodes, depths, workers = _analysis_overrides(setup, args)
    m, d, a = setup.pmap, setup.density, setup.analysis
    name = args.method
    if name == "eq5_quadrature":
        rep = loss_mod.loss_eq5_quadrature(m, d, nodes, tol=a.tol,
                                           k_max=a.k_max, seed=seed)
    else:
        rep = loss_mod.estimate(m, d, n, seed, (name,), depths=depths,
                                sweep_n=min(n, _REPORT_SWEEP_CAP),
                                tol=a.tol, k_max=a.k_max,
                                workers=workers)[name]
    if name != "sweep":
        _emit(rep.to_dict())
        return EXIT_OK
    print("depth,loss_bits,stderr_bits")
    for depth, lb, se in zip(rep.depths, rep.losses_bits, rep.stderrs_bits):
        print(f"{depth},{lb!r},{se!r}")
    return EXIT_OK


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
    t0 = time.monotonic()
    rep = build_report(setup, n, seed, nodes, depths, workers)
    if args.timing:
        rep["wall_time_s"] = time.monotonic() - t0
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
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("bounds", help="upper bounds and H(W)")
    common(p)
    p.set_defaults(fn=cmd_estimate, method="bounds")

    p = sub.add_parser("classify", help="finite/infinite loss verdict")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sweep", help="partition sweep as CSV")
    common(p)
    p.add_argument("--depths", default=None, help="A:B inclusive, or comma list")
    p.set_defaults(fn=cmd_estimate, method="sweep")

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
        _emit(err.classification.to_dict(), file=sys.stderr)
        print("error: information loss is infinite; no finite estimate",
              file=sys.stderr)
        return EXIT_INFINITE
    except InfoLossError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
