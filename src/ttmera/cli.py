"""Command-line harness around the experiment drivers.

Exit codes: 0 success, 2 configuration or input-format problem, 3 capacity
guard tripped or memory exhausted, 4 numeric failure.  Every subcommand
takes ``--out``; each also takes those of ``--seed``, ``--threads``,
``--paper-scale`` and the search flags ``--gap`` and ``--max-iters`` that
it reads, and refuses the others as a usage error.

A subcommand hands its driver only the flags the user gave, under their
``dest`` names, which are the driver's parameter names; every other
parameter keeps the driver's own default.  ``--paper-scale`` adds the
subcommand's row of :data:`PAPER_SCALE` for the flags left unset, so an
explicit flag always wins.

Results are deterministic for a fixed seed, and a scan gives the same rows
at one and at two ``--threads``.  ``-v`` (before the subcommand) shows the
package's log messages on stderr, such as a disentangler search that
stopped at its iteration budget.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import experiments as exp
from .errors import CapacityError, NumericError
from .heat import HeatConfig

# The sizes of the paper's experiments: what --paper-scale sets, per
# subcommand, keyed by the dest of the flag it stands in for.
PAPER_SCALE = {
    "heat2d": {"ds": exp.PAPER_HEAT.ds},
    "planted": {"I": 19, "rprime": 128},
    "rmin-scan": {"I_values": tuple(range(2, 15))},
    "mera12": {"I": 10, "S": 5},
    "iters-vs-rank": {"I": 8, "rprimes": tuple(range(20, 65))},
}


def _paper(command: str, dest: str) -> str:
    """A paper-scale value as a help string names it."""
    v = PAPER_SCALE[command][dest]
    return f"{v[0]}-{v[-1]}" if isinstance(v, tuple) else f"{v:g}"


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} outside 0..2^64-1")
    return value


def _int_list(text: str) -> list[int]:
    """Parse ``2,3,5`` or ``4-9`` (or a mix) into a list of ints."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(v) for v in part.split("-", 1))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"descending range {part!r}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    # An unset flag stays out of the namespace, so its driver's default
    # applies.
    unset = argparse.SUPPRESS
    out = argparse.ArgumentParser(add_help=False, argument_default=unset)
    out.add_argument("--out", dest="out_dir", metavar="DIR",
                     help="directory for CSV/JSON/binary artifacts")
    seed = argparse.ArgumentParser(add_help=False, argument_default=unset)
    seed.add_argument("--seed", type=_u64,
                      help="root seed for all random constituents")
    threads = argparse.ArgumentParser(add_help=False, argument_default=unset)
    threads.add_argument("--threads", type=int, help="parallel scan points")
    scale = argparse.ArgumentParser(add_help=False, argument_default=unset)
    scale.add_argument("--paper-scale", action="store_true",
                       help="full-size configuration instead of desk scale")
    search = argparse.ArgumentParser(add_help=False, argument_default=unset)
    search.add_argument("--gap", dest="gap_threshold", type=float,
                        help="rank-gap convergence threshold")
    search.add_argument("--max-iters", type=int, help="iteration budget")

    parser = argparse.ArgumentParser(
        prog="ttmera",
        description="Tensor-train, Tucker, and MERA compression experiments.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="show the package's log messages on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "heat2d", parents=[out, scale], argument_default=unset,
        help="generate the heat-equation snapshot tensor",
    )
    p.add_argument("--ds", type=float,
                   help=f"spatial step ({_paper('heat2d', 'ds')} at paper "
                        "scale)")
    p.add_argument("--dt", type=float, help="time step (default 0.25*ds^2)")
    p.add_argument("--t-end", type=float, help="simulated duration")
    p.set_defaults(func=_cmd_heat2d)

    p = sub.add_parser(
        "compress", parents=[out], argument_default=unset,
        help="compare decompositions of a stored tensor",
    )
    p.add_argument("source", metavar="input", help="tensor file to compress")
    p.add_argument("--eps", dest="epsilon", type=float,
                   help="relative error budget")
    p.add_argument("--method", dest="methods", action="append",
                   choices=list(exp.COMPRESS_METHODS),
                   help="decomposition to run (repeatable; default all)")
    p.add_argument("--factorize", action="store_true",
                   help="split every dimension into its prime factors first")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "planted", parents=[out, seed, scale, search], argument_default=unset,
        help="recover a planted rank-lowering disentangler",
    )
    p.add_argument("--I", type=int,
                   help=f"index size ({_paper('planted', 'I')} at paper scale)")
    p.add_argument("--rprime", type=int,
                   help=f"planted rank ({_paper('planted', 'rprime')} at "
                        "paper scale)")
    p.add_argument("--image", metavar="PGM",
                   help="grayscale image used as the top matrix")
    p.add_argument("--trace-stride", type=int,
                   help="sample the spectrum every N iterations (0 = off)")
    p.set_defaults(func=_cmd_planted)

    p = sub.add_parser(
        "rmin-scan", parents=[out, seed, threads, scale, search],
        argument_default=unset,
        help="smallest convergent target rank per index size",
    )
    p.add_argument("--I-values", type=_int_list, metavar="LIST",
                   help="index sizes, e.g. 2,3,4,5 or 2-7 "
                        f"({_paper('rmin-scan', 'I_values')} at paper scale)")
    p.add_argument("--seeds", type=int,
                   help="plants per index size for the majority vote")
    p.set_defaults(func=_cmd_rmin_scan)

    p = sub.add_parser(
        "mera12", parents=[out, seed, scale, search], argument_default=unset,
        help="plant a deep network, expand it, and recover it",
    )
    p.add_argument("--I", type=int,
                   help=f"leaf index size ({_paper('mera12', 'I')} at paper "
                        "scale)")
    p.add_argument("--S", type=int,
                   help=f"isometry output size ({_paper('mera12', 'S')} at "
                        "paper scale)")
    p.add_argument("--arity", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--eps", dest="epsilon", type=float,
                   help="recovery error budget")
    p.add_argument("--strategy", dest="strategies", action="append",
                   choices=["hosvd", "procrustes"],
                   help="recovery strategy (repeatable; default both)")
    p.set_defaults(func=_cmd_mera12)

    p = sub.add_parser(
        "iters-vs-rank", parents=[out, seed, threads, scale, search],
        argument_default=unset,
        help="search iterations as the target rank varies",
    )
    p.add_argument("--I", type=int,
                   help=f"index size ({_paper('iters-vs-rank', 'I')} at "
                        "paper scale)")
    p.add_argument("--rprimes", type=_int_list, metavar="LIST",
                   help="target ranks, e.g. 2-16 (default full range; "
                        f"{_paper('iters-vs-rank', 'rprimes')} at paper "
                        "scale)")
    p.add_argument("--seeds", type=int,
                   help="plants per rank; the median count is reported")
    p.set_defaults(func=_cmd_iters_vs_rank)

    return parser


def _cmd_heat2d(out_dir: str = ".", **given) -> None:
    cfg = HeatConfig(**given)
    path = exp.run_heat2d(cfg, Path(out_dir) / "heat.mrt1")
    print(f"wrote {path}: {cfg.nodes} x {cfg.nodes} x {cfg.steps} "
          f"(ds={cfg.ds:g}, dt={cfg.time_step:g})")


def _cmd_compress(**given) -> None:
    for r in exp.run_compress(**given):
        print(f"{r.method:<10} error={r.relative_error:.3e}  "
              f"storage={r.storage_count:,}  ratio={r.compression_ratio:.4g}  "
              f"time={r.elapsed_seconds:.2f}s")


def _cmd_planted(**given) -> None:
    result = exp.run_planted(**given)
    rep = result["report"]
    print(f"I={result['I']} rprime={result['rprime']}: "
          f"converged={rep.converged} "
          f"iterations={rep.iterations} gap={rep.final_gap:.3e} "
          f"rank={rep.achieved_rank} "
          f"({result['elapsed_seconds']:.2f}s)")


def _cmd_rmin_scan(**given) -> None:
    for row in exp.run_rmin_scan(**given):
        votes = ",".join(str(v) for v in row["votes"])
        print(f"I={row['I']:<3} rmin={row['rmin']:<4} votes=[{votes}]")


def _cmd_mera12(**given) -> None:
    for r in exp.run_mera12(**given)["reports"]:
        strategy = (r.detail or {}).get("strategy", "")
        tag = f"{r.method}[{strategy}]" if strategy else r.method
        print(f"{tag:<20} error={r.relative_error:.3e}  "
              f"storage={r.storage_count:,}  ratio={r.compression_ratio:.4g}  "
              f"time={r.elapsed_seconds:.2f}s")


def _cmd_iters_vs_rank(**given) -> None:
    for row in exp.run_iters_vs_rank(**given):
        print(f"rprime={row['rprime']:<4} iterations={row['iterations']:<8} "
              f"converged={row['converged']}")


def main(argv=None) -> int:
    given = vars(_build_parser().parse_args(argv))
    if given.pop("verbose"):
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
    command, func = given.pop("command"), given.pop("func")
    if given.pop("paper_scale", False):
        given = {**PAPER_SCALE[command], **given}
    try:
        func(**given)
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
