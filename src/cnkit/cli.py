"""Command-line interface.

Usage:
    cnkit verify --max-n 100000
    cnkit scan --residue 5 --max-n 1000000 --workers 4 --format json
    cnkit certify --residue 5 --max-n 10000 --workers 2 --out certs.csv
    cnkit simulate --row 5a --r 30 --samples 100000 --seed 42
    cnkit markov --chain odd --k-max 64
    cnkit alpha --k-max 10
    cnkit classcheck --max-n 2000

Exit codes: 0 success, 1 identity/assertion failure, 2 resource error,
3 bad arguments; `verify`, `scan` and `certify` exit 1 when a divisor sum
differs from its determinant.  Seeded commands are byte-reproducible for
any worker count.  CSV schemas are fixed; JSON mirrors the same rows
plus a meta object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from itertools import islice

from . import __version__
from .altsim import (
    alpha,
    classrank_stationary,
    corank_distribution_mc,
    ensemble_config,
    gerth_pmf,
    markov_stationary,
)
from .classgroup import classgroup_oracle
from .density import certified_table, identity_check, scan, wilson_ci
from .monsky import build_twist, redei_g, row_matrix, rows_for_residue
from .numtheory import (
    BLOCK,
    ResourceLimitError,
    enumerate_squarefree,
    factor_squarefree,
    sieve_init,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures to exit code 3
        raise _ArgumentError(message)


def _config_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(header: list[str], rows: Iterable[list], meta: dict, args) -> None:
    """Serialize rows, read once, as CSV or JSON with identical numeric
    values, written as the rows come: CSV a row at a time; JSON, the text
    of json.dumps({"meta": meta, "rows": [one dict per row]}, indent=2,
    sort_keys=True), a `BLOCK` of rows at a time (`_json_rows`)."""
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_text(v) for v in row] for row in rows)
            return
        encode = json.JSONEncoder(indent=2, sort_keys=True).encode
        fh.write('{\n  "meta": ' + encode(meta).replace("\n", "\n  ") + ',\n  "rows": [')
        rows, sep = iter(rows), ""
        while block := [dict(zip(header, row)) for row in islice(rows, BLOCK)]:
            fh.write(sep + _json_rows(block))
            sep = ","
        fh.write("\n  ]\n}\n" if sep else "]\n}\n")


# The separator of two items of a row, at the depth of `_emit`'s rows; an
# encoder with no indent runs in C, one with indent=2 in Python.
_ROW_ITEM = ",\n      "
_encode_rows = json.JSONEncoder(sort_keys=True, separators=(_ROW_ITEM, ": ")).encode


def _json_rows(block: list[dict]) -> str:
    """The nonempty dicts of block, of str keys and scalar values (str,
    int, float, bool or None), as json.dumps(..., indent=2, sort_keys=True)
    writes them two levels deep, without the brackets of the list.

    The C encoder parts the items of each row by `_ROW_ITEM`, already
    indented.  It parts the rows by `_ROW_ITEM` too, and since no scalar's
    JSON holds a raw newline, only there does `_ROW_ITEM` stand between a
    "}" and a "{"; those and the brackets are rewritten."""
    text = _encode_rows(block)[2:-2].replace("}" + _ROW_ITEM + "{", "\n    },\n    {\n      ")
    return "\n    {\n      " + text + "\n    }"


def _text(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _meta(args, seed=None, **params) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "seed": seed,
        "config_hash": _config_hash({"command": args.command, "seed": seed, **params}),
    }


# --- subcommands ----------------------------------------------------------------


def cmd_verify(args) -> int:
    sieve = sieve_init(max(2, args.max_n))
    rows_checked, n_checked, mismatches = identity_check(args.max_n, sieve, args.workers)
    rows_out = []
    for n, row, sum_value, det_value in mismatches:
        matrix = row_matrix(row, build_twist(factor_squarefree(n, sieve)))
        rows_out.append([n, row, sum_value, det_value, json.dumps(matrix.tolist())])
    header = ["n", "row", "sum_value", "det_value", "matrix"]
    _emit(header, rows_out, _meta(args, max_n=args.max_n), args)
    print(f"checked: {rows_checked} rows over {n_checked} n", file=sys.stderr)
    return EXIT_FAILED if mismatches else EXIT_OK


def cmd_scan(args) -> int:
    sieve = sieve_init(max(2, args.max_n))
    rep = scan(args.residue, args.max_n, sieve, workers=args.workers)
    rows = []
    for metric, count, total in rep.metrics():
        freq = count / total if total else 0.0
        lo, hi = wilson_ci(count, total)
        rows.append([metric, count, total, freq, lo, hi])
    header = ["metric", "count", "total", "frequency", "ci_low", "ci_high"]
    _emit(header, rows, _meta(args, max_n=args.max_n, residue=args.residue), args)
    return _scan_status(rep)


def cmd_certify(args) -> int:
    sieve = sieve_init(max(2, args.max_n))
    rep = certified_table(args.residue, args.max_n, sieve, args.workers)
    labels = rows_for_residue(args.residue)
    # Read a BLOCK of records at a time, so that no Python list holds them all.
    cert = rep.certified
    rows = (
        [n, args.residue, labels[k], r3, 1]
        for lo in range(0, cert.size, BLOCK)
        for n, k, r3 in cert[lo : lo + BLOCK].tolist()
    )
    header = ["n", "residue", "row", "selmer_rank3", "L_value"]
    _emit(header, rows, _meta(args, max_n=args.max_n, residue=args.residue), args)
    return _scan_status(rep)


def _scan_status(rep) -> int:
    """Exit 1 if the scan report breaks a standing assertion."""
    return EXIT_FAILED if rep.identity_mismatches or rep.sel3_violations else EXIT_OK


def cmd_simulate(args) -> int:
    cfg = ensemble_config(args.row)
    hist = corank_distribution_mc(
        cfg, r=args.r, samples=args.samples, seed=args.seed, workers=args.workers
    )
    rows = [
        [k, hist.counts[k], hist.counts[k] / hist.samples]
        for k in sorted(hist.counts)
    ]
    header = ["corank", "count", "frequency"]
    meta = _meta(args, seed=args.seed, row=args.row, r=args.r, samples=args.samples)
    _emit(header, rows, meta, args)
    return EXIT_OK


def cmd_markov(args) -> int:
    if args.chain == "classrank":
        dist = classrank_stationary(k_max=args.k_max)
        ref = {k: gerth_pmf(k) for k in dist}
    else:
        dist = markov_stationary(args.chain, k_max=args.k_max)
        ref = {k: alpha(k) for k in dist}
    rows = [[k, dist[k], ref[k]] for k in sorted(dist)]
    header = ["k", "probability", "closed_form"]
    _emit(header, rows, _meta(args, chain=args.chain, k_max=args.k_max), args)
    return EXIT_OK


def cmd_alpha(args) -> int:
    if args.k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {args.k_max}")
    rows = ([k, alpha(k)] for k in range(args.k_max + 1))
    _emit(["k", "alpha"], rows, _meta(args, k_max=args.k_max), args)
    return EXIT_OK


def cmd_classcheck(args) -> int:
    sieve = sieve_init(max(2, args.max_n))
    disagreements = []
    checked = 0
    for f in enumerate_squarefree(1, 1, args.max_n, sieve):
        g = redei_g(f)
        info = classgroup_oracle(f, bound=args.max_n)
        checked += 1
        if (g == 1) != (info.four_rank == 0):
            disagreements.append([f.n, g, info.four_rank, info.h])
    header = ["n", "redei_g", "four_rank", "class_number"]
    _emit(header, disagreements, _meta(args, max_n=args.max_n), args)
    status = "all" if not disagreements else f"{checked - len(disagreements)}/{checked}"
    print(f"agree: {status}", file=sys.stderr)
    return EXIT_OK if not disagreements else EXIT_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="cnkit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, residue=False, row=False, seeded=False, scale=False, workers=False):
        if scale:
            p.add_argument("--max-n", type=int, required=True, dest="max_n")
        if residue:
            p.add_argument("--residue", type=int, required=True)
        if row:
            p.add_argument("--row", type=str, required=True)
        if seeded:
            p.add_argument("--samples", type=int, default=100_000)
            p.add_argument("--r", type=int, default=30)
            p.add_argument("--seed", type=int, default=0)
        if workers:
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None)

    common(
        sub.add_parser("verify", help="check divisor sums against determinants"),
        scale=True,
        workers=True,
    )
    common(
        sub.add_parser("scan", help="density scan over one residue class"),
        residue=True,
        scale=True,
        workers=True,
    )
    common(
        sub.add_parser("certify", help="list certified congruent numbers"),
        residue=True,
        scale=True,
        workers=True,
    )
    common(
        sub.add_parser("simulate", help="Monte Carlo corank distribution"),
        row=True,
        seeded=True,
        workers=True,
    )
    markov = sub.add_parser("markov", help="stationary distribution of a corank chain")
    markov.add_argument("--chain", choices=("even", "odd", "classrank"), required=True)
    markov.add_argument("--k-max", type=int, default=64, dest="k_max")
    common(markov)
    alpha_p = sub.add_parser("alpha", help="table of the limit-law constants")
    alpha_p.add_argument("--k-max", type=int, default=10, dest="k_max")
    common(alpha_p)
    common(sub.add_parser("classcheck", help="Redei determinant vs class-group oracle"), scale=True)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "scan": cmd_scan,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "markov": cmd_markov,
    "alpha": cmd_alpha,
    "classcheck": cmd_classcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            parser.error(f"argument --workers: must be at least 1, got {args.workers}")
        if getattr(args, "max_n", 0) < 0:
            parser.error(f"argument --max-n: must be nonnegative, got {args.max_n}")
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
