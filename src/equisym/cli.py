"""Command-line interface: property checks, training with evaluation, sweeps.

Exit codes: 0 success, 1 property/assertion failure, a diverged training
run or a sweep cell that diverged or raised, 2 usage error or a config
that training cannot meet (a condition cap no batch passes).
Config files are flat ``key = value`` lines with ``#`` comments; flags
override file values.  The output directory defaults to ``.`` and can be
overridden by --out or the EQUISYM_OUT environment variable.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import List, Optional, get_type_hints

from . import checks as checks_mod
from . import nn
from .bench import (
    ConfigurationError,
    TrainConfig,
    VARIANTS,
    run_experiment,
    write_history_csv,
    write_summary,
)


class UsageError(Exception):
    pass


CONFIG_TYPES = get_type_hints(TrainConfig)  # field name -> int, float or str


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment; unknown keys rejected."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return coerce_config(out)


def coerce_config(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if value is None:
            continue
        if key not in CONFIG_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        try:
            out[key] = CONFIG_TYPES[key](value)
        except ValueError:
            raise UsageError(
                f"config key {key!r} needs {CONFIG_TYPES[key].__name__}, got {value!r}")
    return out


def build_config(args, **cell) -> TrainConfig:
    """Config file, then flags, then the sweep cell's values, validated."""
    values = {}
    if getattr(args, "config", None):
        try:
            values.update(parse_config_file(args.config))
        except OSError as exc:  # missing, a directory, unreadable
            raise UsageError(f"cannot read config file {args.config}: {exc.strerror}")
        except UnicodeDecodeError:
            raise UsageError(f"cannot read config file {args.config}: not UTF-8 text")
    overrides = {key: getattr(args, key, None) for key in CONFIG_TYPES}
    overrides.update(cell)
    values.update(coerce_config(overrides))
    try:
        return TrainConfig(**values)
    except ConfigurationError as exc:
        raise UsageError(str(exc))


def resolve_outdir(args) -> str:
    """The output directory, not yet created; checked before any run starts:
    its nearest existing ancestor (or itself) must be a directory."""
    out = getattr(args, "out", None) or os.environ.get("EQUISYM_OUT") or "."
    existing = out
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)  # "" is the working directory
    if existing and not os.path.isdir(existing):
        raise UsageError(f"output path is not a directory: {existing}")
    return out


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    for key, type_ in CONFIG_TYPES.items():
        help_ = f"one of {', '.join(VARIANTS)}" if key == "variant" else None
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=type_, help=help_)
    p.add_argument("--out", help="output directory (or set EQUISYM_OUT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equisym")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run property suites")
    p_check.add_argument("suite", choices=sorted(checks_mod.SUITES) + ["all"])

    p_train = sub.add_parser("train", help="train and evaluate one model variant")
    _add_config_flags(p_train)

    p_sweep = sub.add_parser("sweep", help="grid over variants/dims/seeds")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--variants", default="sym_haar,plain_mlp")
    p_sweep.add_argument("--dims", default="2")
    p_sweep.add_argument("--seeds", default="0")
    p_sweep.add_argument("--summary", action="store_true",
                         help="print median final_loss per (variant, d)")
    return parser


def run_check(suite: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    results = checks_mod.run_suite(suite)
    for r in results:
        print(r.line(), file=out)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed", file=out)
    return 0 if n_fail == 0 else 1


def run_train(args) -> int:
    config = build_config(args)
    outdir = resolve_outdir(args)
    result = run_experiment(config)
    os.makedirs(outdir, exist_ok=True)
    tag = f"{config.variant}_d{config.d}_seed{config.seed}"
    write_history_csv(os.path.join(outdir, f"history_{tag}.csv"), result["history"])
    nn.save_params(os.path.join(outdir, f"params_{tag}.txt"), result["params"])
    write_summary(os.path.join(outdir, f"summary_{tag}.json"), result)
    status = "diverged" if result["diverged"] else "ok"
    print(f"{tag}: final_loss={result['final_loss']:.6g} "
          f"equiv_gap={result['equiv_gap']:.3e} status={status}")
    return 1 if result["diverged"] else 0


def run_sweep(args) -> int:
    variants, dims, seeds = (
        [v.strip() for v in arg.split(",") if v.strip()]
        for arg in (args.variants, args.dims, args.seeds)
    )
    if not variants or not dims or not seeds:
        raise UsageError("sweep needs nonempty variants, dims, and seeds")
    configs = [build_config(args, variant=variant, d=d, seed=seed)
               for variant in variants for d in dims for seed in seeds]
    outdir = resolve_outdir(args)
    os.makedirs(outdir, exist_ok=True)

    rows = []
    for config in configs:
        variant, d, seed = config.variant, config.d, config.seed
        try:
            result = run_experiment(config)
            rows.append((variant, d, seed, result["final_loss"],
                         result["equiv_gap"],
                         "diverged" if result["diverged"] else "ok"))
        except Exception as exc:  # record the failure, keep sweeping
            rows.append((variant, d, seed, float("nan"), float("nan"),
                         f"error:{type(exc).__name__}"))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    path = os.path.join(outdir, "sweep.csv")
    with nn.atomic_open(path) as fh:
        fh.write("variant,d,seed,final_loss,equiv_gap,status\n")
        for variant, d, seed, fl, gap, status in rows:
            fh.write("%s,%d,%d,%.17g,%.17g,%s\n" % (variant, d, seed, fl, gap, status))
    print(f"wrote {len(rows)} rows to {path}")
    if args.summary:
        by_cell = {}
        for variant, d, seed, fl, gap, status in rows:
            if status == "ok":
                by_cell.setdefault((variant, d), []).append(fl)
        for (variant, d), losses in sorted(by_cell.items()):
            print(f"median {variant} d={d}: {statistics.median(losses):.6g}")
    return 0 if all(status == "ok" for *_, status in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return run_check(args.suite)
        if args.command == "train":
            return run_train(args)
        if args.command == "sweep":
            return run_sweep(args)
    except (UsageError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
