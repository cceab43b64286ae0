"""Command-line harness around the experiment drivers.

Exit codes: 0 success, 2 configuration or input-format problem, 3 capacity
guard tripped or memory exhausted, 4 numeric failure.  Every subcommand
takes ``--out``; each also takes those of ``--seed``, ``--threads`` and
``--paper-scale`` that it reads, and refuses the others as a usage error.
Results are deterministic for a fixed seed at ``--threads 1``.  ``-v``
(before the subcommand) shows the package's log messages on stderr, such as
a disentangler search that stopped at its iteration budget.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import experiments as exp
from .errors import CapacityError, NumericError
from .heat import HeatConfig


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} outside 0..2^64-1")
    return value


def _int_list(text: str) -> list[int]:
    """Parse ``2,3,5`` or ``20-64`` (or a mix) into a list of ints."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR", default=None,
                     help="directory for CSV/JSON/binary artifacts")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_u64, default=0,
                      help="root seed for all random constituents")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=1,
                         help="parallel scan points")
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--paper-scale", action="store_true",
                       help="full-size configuration instead of desk scale")

    parser = argparse.ArgumentParser(
        prog="ttmera",
        description="Tensor-train, Tucker, and MERA compression experiments.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="show the package's log messages on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "heat2d", parents=[out, scale],
        help="generate the heat-equation snapshot tensor",
    )
    p.add_argument("--ds", type=float, default=None,
                   help="spatial step (default 2e-2; 1e-2 at paper scale)")
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default 0.25*ds^2)")
    p.add_argument("--t-end", type=float, default=0.25,
                   help="simulated duration")
    p.set_defaults(func=_cmd_heat2d)

    p = sub.add_parser(
        "compress", parents=[out],
        help="compare decompositions of a stored tensor",
    )
    p.add_argument("input", help="tensor file to compress")
    p.add_argument("--eps", type=float, default=1e-3,
                   help="relative error budget")
    p.add_argument("--method", action="append",
                   choices=list(exp.COMPRESS_METHODS),
                   help="decomposition to run (repeatable; default all)")
    p.add_argument("--factorize", action="store_true",
                   help="split every dimension into its prime factors first")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "planted", parents=[out, seed, scale],
        help="recover a planted rank-lowering disentangler",
    )
    p.add_argument("--I", type=int, default=None,
                   help="index size (default 8; 19 at paper scale)")
    p.add_argument("--rprime", type=int, default=None,
                   help="planted rank (default 32; 128 at paper scale)")
    p.add_argument("--image", default=None, metavar="PGM",
                   help="grayscale image used as the top matrix")
    p.add_argument("--gap", type=float, default=1e12,
                   help="rank-gap convergence threshold")
    p.add_argument("--max-iters", type=int, default=50_000,
                   help="iteration budget")
    p.add_argument("--trace-stride", type=int, default=50,
                   help="sample the spectrum every N iterations (0 = off)")
    p.set_defaults(func=_cmd_planted)

    p = sub.add_parser(
        "rmin-scan", parents=[out, seed, threads, scale],
        help="smallest convergent target rank per index size",
    )
    p.add_argument("--I-values", type=_int_list, default=None,
                   metavar="LIST",
                   help="index sizes, e.g. 2,3,4,5 or 2-14 "
                        "(default 2-5; 2-14 at paper scale)")
    p.add_argument("--gap", type=float, default=1e12)
    p.add_argument("--max-iters", type=int, default=50_000)
    p.add_argument("--seeds", type=int, default=3,
                   help="plants per index size for the majority vote")
    p.set_defaults(func=_cmd_rmin_scan)

    p = sub.add_parser(
        "mera12", parents=[out, seed, scale],
        help="plant a deep network, expand it, and recover it",
    )
    p.add_argument("--I", type=int, default=None,
                   help="leaf index size (default 4; 10 at paper scale)")
    p.add_argument("--S", type=int, default=None,
                   help="isometry output size (default 2; 5 at paper scale)")
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-11,
                   help="recovery error budget")
    p.add_argument("--gap", type=float, default=1e13)
    p.add_argument("--max-iters", type=int, default=50_000)
    p.add_argument("--strategy", action="append",
                   choices=["hosvd", "procrustes"],
                   help="recovery strategy (repeatable; default both)")
    p.set_defaults(func=_cmd_mera12)

    p = sub.add_parser(
        "iters-vs-rank", parents=[out, seed, threads, scale],
        help="search iterations as the target rank varies",
    )
    p.add_argument("--I", type=int, default=None,
                   help="index size (default 4; 8 at paper scale)")
    p.add_argument("--rprimes", type=_int_list, default=None, metavar="LIST",
                   help="target ranks, e.g. 2-16 (default full range; "
                        "20-64 at paper scale)")
    p.add_argument("--gap", type=float, default=1e12)
    p.add_argument("--max-iters", type=int, default=50_000)
    p.add_argument("--seeds", type=int, default=1,
                   help="plants per rank; the median count is reported")
    p.set_defaults(func=_cmd_iters_vs_rank)

    return parser


def _cmd_heat2d(args) -> None:
    base = exp.PAPER_HEAT if args.paper_scale else exp.DESK_HEAT
    ds = args.ds if args.ds is not None else base.ds
    cfg = HeatConfig(ds=ds, dt=args.dt, t_end=args.t_end)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = exp.run_heat2d(cfg, out / "heat.mrt1")
    print(f"wrote {path}: {cfg.nodes} x {cfg.nodes} x {cfg.steps} "
          f"(ds={cfg.ds:g}, dt={cfg.time_step:g})")


def _cmd_compress(args) -> None:
    methods = tuple(args.method) if args.method else exp.COMPRESS_METHODS
    reports = exp.run_compress(
        args.input,
        epsilon=args.eps,
        methods=methods,
        factorize=args.factorize,
        out_dir=args.out,
    )
    for r in reports:
        print(f"{r.method:<10} error={r.relative_error:.3e}  "
              f"storage={r.storage_count:,}  ratio={r.compression_ratio:.4g}  "
              f"time={r.elapsed_seconds:.2f}s")


def _cmd_planted(args) -> None:
    I = args.I if args.I is not None else (19 if args.paper_scale else 8)
    rprime = args.rprime if args.rprime is not None else (
        128 if args.paper_scale else 32)
    result = exp.run_planted(
        I=I,
        rprime=rprime,
        seed=args.seed,
        image=args.image,
        gap_threshold=args.gap,
        max_iters=args.max_iters,
        trace_stride=args.trace_stride,
        out_dir=args.out,
    )
    rep = result["report"]
    print(f"I={I} rprime={rprime}: converged={rep.converged} "
          f"iterations={rep.iterations} gap={rep.final_gap:.3e} "
          f"rank={rep.achieved_rank} "
          f"({result['elapsed_seconds']:.2f}s)")


def _cmd_rmin_scan(args) -> None:
    if args.I_values is not None:
        I_values = args.I_values
    elif args.paper_scale:
        I_values = list(range(2, 15))
    else:
        I_values = [2, 3, 4, 5]
    rows = exp.run_rmin_scan(
        I_values=I_values,
        gap_threshold=args.gap,
        max_iters=args.max_iters,
        seed=args.seed,
        seeds=args.seeds,
        threads=args.threads,
        out_dir=args.out,
    )
    for row in rows:
        votes = ",".join(str(v) for v in row["votes"])
        print(f"I={row['I']:<3} rmin={row['rmin']:<4} votes=[{votes}]")


def _cmd_mera12(args) -> None:
    strategies = tuple(args.strategy) if args.strategy else (
        "hosvd", "procrustes")
    result = exp.run_mera12(
        paper_scale=args.paper_scale,
        I=args.I,
        S=args.S,
        arity=args.arity,
        order=args.order,
        layers=args.layers,
        seed=args.seed,
        epsilon=args.eps,
        gap_threshold=args.gap,
        max_iters=args.max_iters,
        strategies=strategies,
        out_dir=args.out,
    )
    for r in result["reports"]:
        strategy = (r.detail or {}).get("strategy", "")
        tag = f"{r.method}[{strategy}]" if strategy else r.method
        print(f"{tag:<20} error={r.relative_error:.3e}  "
              f"storage={r.storage_count:,}  ratio={r.compression_ratio:.4g}  "
              f"time={r.elapsed_seconds:.2f}s")


def _cmd_iters_vs_rank(args) -> None:
    I = args.I if args.I is not None else (8 if args.paper_scale else 4)
    if args.rprimes is not None:
        rprimes = args.rprimes
    elif args.paper_scale:
        rprimes = list(range(20, 65))
    else:
        rprimes = None
    rows = exp.run_iters_vs_rank(
        I=I,
        rprimes=rprimes,
        gap_threshold=args.gap,
        max_iters=args.max_iters,
        seed=args.seed,
        seeds=args.seeds,
        threads=args.threads,
        out_dir=args.out,
    )
    for row in rows:
        print(f"rprime={row['rprime']:<4} iterations={row['iterations']:<8} "
              f"converged={row['converged']}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
    try:
        args.func(args)
    except (CapacityError, MemoryError) as e:
        print(f"capacity guard: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:
        # ConfigError and FormatError are ValueErrors.
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
