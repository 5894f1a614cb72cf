"""Command-line interface.

Subcommands:

  decompose      build or validate a lacunary decomposition from a slope set
  kernel-table   tabulate a kernel or its transform profile as CSV
  apply          run a maximal or smoothing operator over a grid file
  overlap        exact strip-overlap maxima of a decomposition, with witnesses
  check-support  band-in-strip containment report for an interval chain
  sweep          operator-norm ratio sweeps over N or mu

All outputs are written atomically (temp file + rename).  Exit codes:
0 success, 1 validation/usage failure, 2 I/O failure.  Randomness flows from
--seed through counter-based generators, so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DirmaxError, InvalidArgument, _check_integer
from .grid_ops import Grid2D, OperatorConfig, gamma_op, m0, m1, m2, strong_maximal
from .harness import sweep_N, sweep_mu
from .kernels import bump_eval, fejer_eval, vp_eval, vp_transform, zeta_eval
from .lacunary import (
    DirectionSet,
    LacunaryDecomposition,
    RankInterval,
    _interval_columns,
    _json_numbers,
    _read_json,
    binary_decomposition,
    build_decomposition,
)
from .sectors import max_overlap_with_argmax, support_containment_check

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _atomic_write(path: str, save: Callable[[str], None]) -> None:
    """Run ``save`` on a temp file next to ``path``, then rename it into place, with
    the mode ``open(path, "w")`` gives (0o666 less the umask), not mkstemp's 0o600."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-dirmax-")
    os.close(fd)
    try:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        save(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, lambda tmp: Path(tmp).write_bytes(text.encode()))


def _parse_list(text: str, flag: str, kind=float, count: Optional[int] = None) -> list:
    """The comma-separated values of ``flag`` as ``kind``; InvalidArgument if not."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        values = []  # a split never returns an empty list
    if not values or (count and len(values) != count):
        raise InvalidArgument(f"{flag} expects comma-separated {kind.__name__}s, got {text!r}")
    return values


def _load_grid(path: str, spacing: Optional[float]) -> Grid2D:
    if path.endswith(".csv"):
        if spacing is None:
            raise InvalidArgument("--spacing is required for CSV grids")
        return Grid2D.load_csv(path, spacing)
    return Grid2D.load(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_decompose(args) -> int:
    data = _read_json(args.input)
    domain = tuple(_parse_list(args.domain, "--domain", count=2)) if args.domain else None
    if args.mode == "binary":
        for flag, value in (("--domain", domain), ("--gap", args.gap)):
            if value is not None:
                raise InvalidArgument(f"{flag} applies to chain mode only")
        decomp = binary_decomposition(_json_numbers(data, "binary mode input"))
    else:
        if isinstance(data, dict):
            if "chain" not in data:
                raise InvalidArgument(f"{args.input}: a JSON object needs a \"chain\" key")
            data = data["chain"]
        if not isinstance(data, list):
            raise InvalidArgument("chain mode expects a JSON array of slope arrays")
        stages = [_json_numbers(stage, "each chain stage") for stage in data]
        decomp = build_decomposition(stages, 0.5 if args.gap is None else args.gap, domain)
    if args.out is None:
        decomp.save(sys.stdout)
    else:
        _atomic_write(args.out, decomp.save)
    return 0


# --kind -> (evaluator, the flag holding its scale); each is called as fn(scale, x)
_KERNELS = {
    "fejer": (fejer_eval, "r"),
    "vp": (vp_eval, "r"),
    "vp-hat": (vp_transform, "r"),
    "bump": (bump_eval, "h"),
    "zeta": (zeta_eval, "r"),
}


def _cmd_kernel_table(args) -> int:
    fn, param = _KERNELS[args.kind]
    other = "h" if param == "r" else "r"
    if getattr(args, other) is not None:
        raise InvalidArgument(f"--{other} does not apply to --kind {args.kind}")
    scale = getattr(args, param)
    scale = 1.0 if scale is None else scale  # the evaluator rejects a bad scale
    a, b = _parse_list(args.range, "--range", count=2)
    _check_integer("--samples", args.samples, 1)
    # open-interval uniform sampling: n nodes strictly between the endpoints
    xs = a + (b - a) * (np.arange(1, args.samples + 1) / (args.samples + 1))
    rows = "".join(f"{x:.12g},{fn(scale, float(x)):.12g}\n" for x in xs)
    _write_text(args.out, "x,value\n" + rows)
    return 0


def _operator_config(args, spacing: float) -> OperatorConfig:
    if args.radii:
        radii = tuple(_parse_list(args.radii, "--radii"))
    else:
        radii = tuple(0.25 * 2.0**k for k in range(4))
    return OperatorConfig(
        radii,
        samples_per_unit=max(1, round(1.0 / spacing)) if args.spu is None else args.spu,
        aspect_levels=args.aspects,
        offset_steps=args.offsets,
    )


def _cmd_apply(args) -> int:
    f = _load_grid(args.grid, args.spacing)
    if args.op == "gamma":
        if args.alpha is None or args.r is None:
            raise InvalidArgument("gamma needs --alpha and --r")
        out = gamma_op(f, args.alpha, args.r, args.h)
    else:
        cfg = _operator_config(args, f.spacing)
        if args.op == "strong":
            out = strong_maximal(f, cfg)
        else:
            if not args.directions:
                raise InvalidArgument(f"{args.op} needs --directions")
            omega = DirectionSet.from_json(_read_json(args.directions))
            out = {"m0": m0, "m1": m1, "m2": m2}[args.op](f, omega, cfg)
    _atomic_write(args.out, out.save)
    return 0


def _cmd_overlap(args) -> int:
    decomp = LacunaryDecomposition.load(args.decomp)
    nl, nt, al, at = max_overlap_with_argmax(decomp, require_poles=not args.skip_poleless)
    payload = {
        "method": "exact",
        "n_low": nl,
        "n_top": nt,
        "argmax_low": list(al),
        "argmax_top": list(at),
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


def _cmd_check_support(args) -> int:
    # floats throughout, so that 4 and 4.0 give the same report
    cols = _interval_columns(_read_json(args.chain), f"{args.chain}: interval")
    chain = [
        RankInterval(lo, hi, k, None if math.isnan(pole) else pole)
        for k, (lo, hi, pole) in enumerate(zip(*(c.tolist() for c in cols)), 1)
    ]
    rep = support_containment_check(chain, args.theta, args.R)
    payload = {
        "m": rep.m,
        "all_contained": rep.all_contained,
        "checks": [
            {
                "k": c.k,
                "band": [c.band.xi1_lo, c.band.xi1_hi],
                "strip_center": c.strip.center,
                "corner_margin": c.corner_margin,
                "contained": c.contained,
            }
            for c in rep.checks
        ],
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0 if rep.all_contained else 1


def _cmd_sweep(args) -> int:
    values = _parse_list(args.values, "--values", int)
    ops = tuple(args.ops.split(","))
    family = tuple(args.family.split(","))
    if args.mode == "N":
        res = sweep_N(values, family, ops, size=args.size, seed=args.seed)
    else:
        res = sweep_mu(values, family_kinds=family, ops=ops, size=args.size, seed=args.seed)
    if args.format == "json":
        _write_text(args.out, json.dumps(res.to_json(), sort_keys=True, indent=1) + "\n")
    else:
        _write_text(args.out, res.to_csv())
    return 0


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    p = _Parser(prog="dirmax", description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
    sub = p.add_subparsers(dest="command")

    d = sub.add_parser("decompose", help="build a lacunary decomposition")
    d.add_argument("--input", required=True)
    d.add_argument("--mode", choices=("binary", "chain"), required=True)
    d.add_argument("--gap", type=float, default=None, help="chain mode only (default 0.5)")
    d.add_argument("--domain", default=None, help="a,b")
    d.add_argument("--out", default=None)
    d.set_defaults(fn=_cmd_decompose)

    k = sub.add_parser("kernel-table", help="tabulate a kernel as CSV")
    k.add_argument("--kind", choices=("fejer", "vp", "vp-hat", "bump", "zeta"), required=True)
    k.add_argument("--r", type=float, default=None, help="scale of every kind but bump (default 1)")
    k.add_argument("--h", type=float, default=None, help="scale of bump (default 1)")
    k.add_argument("--range", required=True, help="a,b")
    k.add_argument("--samples", type=int, required=True)
    k.add_argument("--out", default=None)
    k.set_defaults(fn=_cmd_kernel_table)

    a = sub.add_parser("apply", help="apply an operator to a grid file")
    a.add_argument("--op", choices=("m0", "m1", "m2", "strong", "gamma"), required=True)
    a.add_argument("--grid", required=True)
    a.add_argument("--directions", default=None)
    a.add_argument("--spacing", type=float, default=None, help="grid spacing for CSV input")
    a.add_argument("--r", type=float, default=None)
    a.add_argument("--h", type=float, default=1.0)
    a.add_argument("--alpha", type=float, default=None)
    a.add_argument("--radii", default=None, help="comma-separated dyadic ladder")
    a.add_argument("--spu", type=int, default=None)
    a.add_argument("--aspects", type=int, default=3)
    a.add_argument("--offsets", type=int, default=0)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=_cmd_apply)

    o = sub.add_parser("overlap", help="strip overlap maxima")
    o.add_argument("--decomp", required=True)
    o.add_argument("--skip-poleless", action="store_true")
    o.add_argument("--out", default=None)
    o.set_defaults(fn=_cmd_overlap)

    c = sub.add_parser("check-support", help="band-in-strip containment")
    c.add_argument("--chain", required=True)
    c.add_argument("--theta", type=float, required=True)
    c.add_argument("--R", type=float, required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_check_support)

    s = sub.add_parser("sweep", help="operator-norm ratio sweeps")
    s.add_argument("--mode", choices=("N", "mu"), required=True)
    s.add_argument("--values", required=True, help="e.g. 4,16,64,256")
    s.add_argument("--ops", default="m0,m1,m2")
    s.add_argument("--family", default="disk,needles,random")
    s.add_argument("--size", type=int, default=512)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_sweep)
    return p


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    # join pair-valued flags with their values so "--range -3,3" parses
    argv = list(argv)
    for flag in ("--range", "--domain"):
        for i in range(len(argv) - 1):
            if argv[i] == flag and argv[i + 1].startswith("-"):
                argv[i : i + 2] = [f"{flag}={argv[i + 1]}"]
                break
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args)
    except DirmaxError as exc:
        print(f"dirmax: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dirmax: i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
