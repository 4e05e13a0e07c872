"""Command-line interface.

Subcommands: simulate, fit, summarize, export-graph, mse, check.
Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import inference, io, verify
from .errors import DomainError, QvgraphError
from .families import FamilyKind
from .model import ModelParams, simulate
from .presets import five_area_params

_FAMILY_CHOICES = [k.value for k in FamilyKind]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvgraph",
        description="Graphical models with exponential-family marginals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate replicates from the model")
    sim.add_argument("--family", choices=_FAMILY_CHOICES, default="inverse_gamma")
    sim.add_argument("--s0", type=float, default=6.0)
    sim.add_argument("--c0", type=float, default=10.0)
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--edge-file", help="CSV with the symmetric p x p intensity matrix")
    group.add_argument("--preset", choices=["five-areas"],
                       help="built-in scenario (five areas, strong/weak by adjacency)")
    sim.add_argument("--strong", type=float, default=float(np.exp(2.0)),
                     help="preset neighbour intensity")
    sim.add_argument("--weak", type=float, default=float(np.exp(-2.0)),
                     help="preset non-neighbour intensity")
    sim.add_argument("--n", type=int, required=True, help="number of replicates")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output dataset CSV")
    sim.add_argument("--truth", help="optional JSON path for the generating parameters")

    fit = sub.add_parser("fit", help="run the Gibbs sampler on a dataset")
    fit.add_argument("--data", help="dataset CSV (overrides config input)")
    fit.add_argument("--family", choices=_FAMILY_CHOICES)
    fit.add_argument("--config", help="key = value configuration file")
    fit.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one configuration key")
    fit.add_argument("--out", help="output directory for the posterior samples")

    summ = sub.add_parser("summarize", help="posterior summaries of saved samples")
    summ.add_argument("--samples", required=True, help="samples directory")

    exp = sub.add_parser("export-graph", help="write DOT/JSON network files")
    exp.add_argument("--samples", required=True, help="samples directory")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--basename", default="network")
    exp.add_argument("--threshold", type=float, default=5.0,
                     help="minimum normalized weight shown in the DOT file")

    mse = sub.add_parser("mse", help="posterior-mean predictive mean squared error")
    mse.add_argument("--samples", required=True, help="samples directory")
    mse.add_argument("--data", required=True, help="dataset CSV")
    mse.add_argument("--seed", type=int, default=0)

    chk = sub.add_parser("check", help="run the verification oracle suite")
    chk.add_argument("--family", default="all",
                     choices=_FAMILY_CHOICES + ["all"])
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--replicates", type=int, default=100_000)
    chk.add_argument("--report", help="optional JSON report path")
    return parser


def _load_edge_matrix(path) -> np.ndarray:
    return io._parse_numbers(path, io._parse_rows(path))


def _cmd_simulate(args) -> int:
    if args.preset == "five-areas":
        params = five_area_params(args.family, args.s0, args.c0, args.strong, args.weak)
    elif args.edge_file:
        params = ModelParams(args.family, args.s0, args.c0, _load_edge_matrix(args.edge_file))
    else:
        raise QvgraphError("simulate requires --preset or --edge-file")
    data, _ = simulate(params, args.n, args.seed)
    io.save_dataset(data, args.out)
    print(f"wrote {data.n} x {data.p} dataset to {args.out}")
    if args.truth:
        payload = {
            "family": params.family.value,
            "s0": params.s0,
            "c0": params.c0,
            "edge_intensity": params.edge_intensity.tolist(),
            "n": args.n,
            "seed": args.seed,
        }
        Path(args.truth).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote generating parameters to {args.truth}")
    return 0


def _cmd_fit(args) -> int:
    config = io.RunConfig.from_file(args.config) if args.config else io.RunConfig()
    for item in args.set:
        config.set_item(item, "--set")
    if args.family:
        config.family = args.family
    if args.data:
        config.input = args.data
    if args.out:
        config.output_dir = args.out
    if not config.input:
        raise QvgraphError("fit needs a dataset (--data or input= in the config)")
    if not config.output_dir:
        raise QvgraphError("fit needs an output directory (--out or output_dir=)")

    data = io.load_dataset(config.input, config.family)
    if config.reciprocal_transform:
        data = io.preprocess_reciprocal(data)
    if config.standardize_plus3:
        data = io.preprocess_standardize_plus3(data)
        data.validate_support(config.family)

    samples = inference.run_chains(data, config.family, config.prior_config(),
                                   config.mcmc_config())
    samples.meta["config_hash"] = config.config_hash()
    io.persist_samples(samples, config.output_dir)

    psrf, why, frozen = _convergence(samples)
    diagnostics = {
        "psrf": psrf,
        "frozen": frozen,
        "acceptance": samples.meta["acceptance"],
        "config_hash": samples.meta["config_hash"],
    }
    Path(config.output_dir, "diagnostics.json").write_text(
        json.dumps(diagnostics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"retained {samples.retained} draws per chain x {samples.chains} chains "
          f"-> {config.output_dir}")
    if psrf is None:
        print(f"no split-chain PSRF: {why}")
    else:
        worst = max(psrf, key=psrf.get)
        print(f"largest split-chain PSRF: {psrf[worst]:.3f} ({worst})")
    if frozen:
        print(f"warning: never moved in any chain, so not converged: {', '.join(frozen)}",
              file=sys.stderr)
    return 0


def _convergence(samples):
    """The split-chain PSRF per parameter, or None and the reason a fit this
    short has none; and the parameters that never moved."""
    try:
        psrf, why = inference.split_chain_psrf(samples), None
    except DomainError as exc:
        psrf, why = None, str(exc)
    return psrf, why, inference.frozen_parameters(samples)


def _format_table(rows, headers) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cmd_summarize(args) -> int:
    samples = io.load_samples(args.samples)
    summary = inference.summarize(samples)
    psrf, _, frozen = _convergence(samples)

    def psrf_cell(name):
        if name in frozen:
            return "frozen"
        return "n/a" if psrf is None else f"{psrf[name]:.3f}"

    rows = [
        [name, f"{s.mean:.4f}", f"{s.sd:.4f}", f"{s.q025:.4f}", f"{s.q975:.4f}",
         psrf_cell(name)]
        for name, s in summary.items()
    ]
    print(_format_table(rows, ["parameter", "mean", "sd", "2.5%", "97.5%", "psrf"]))
    return 0


def _cmd_export_graph(args) -> int:
    samples = io.load_samples(args.samples)
    export = io.export_network(samples, threshold=args.threshold,
                               out_dir=args.out, basename=args.basename)
    shown = sum(1 for e in export.edges if e.normalized >= export.threshold)
    print(f"wrote {args.basename}.dot and {args.basename}.json to {args.out} "
          f"({shown}/{len(export.edges)} edges at or above threshold {export.threshold})")
    return 0


def _cmd_mse(args) -> int:
    samples = io.load_samples(args.samples)
    data = io.load_dataset(args.data, samples.family)
    value = inference.predictive_mse(samples, data, np.random.default_rng(args.seed))
    print(f"posterior mean MSE: {value:.6g}")
    return 0


def _cmd_check(args) -> int:
    families = _FAMILY_CHOICES if args.family == "all" else [args.family]
    all_reports = []
    failures = 0
    for name in families:
        reports = verify.default_check_suite(name, args.seed, args.replicates)
        all_reports.extend(reports)
        for rep in reports:
            status = "pass" if rep.passed else "FAIL"
            failures += not rep.passed
            print(f"[{status}] {rep.check_name}: estimate={rep.estimate:.6g} "
                  f"target={rep.target_value:.6g} se={rep.mc_standard_error:.3g}")
    print(f"{len(all_reports) - failures}/{len(all_reports)} checks passed")
    if args.report:
        payload = [dataclasses.asdict(r) for r in all_reports]
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 1 if failures else 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "summarize": _cmd_summarize,
    "export-graph": _cmd_export_graph,
    "mse": _cmd_mse,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QvgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report and fail cleanly
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
