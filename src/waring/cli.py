"""Command-line pipeline: generate, deborder, verify, oracle, bound.

Exit codes: 0 success / verified; 1 exact verification failed (a witness is
printed); 2 malformed input or invalid parameters, including a random
family whose draws all fail (``DrawsExhaustedError``); 3 a runtime-checked
structural hypothesis failed, reported as a JSON line
{"lemma": tag, "message": ..., "witness": ...} on standard error.

Only ``deborder`` and ``bound`` import the route modules (``waring.deborder``
and, through it, ``waring.diagonal``), inside their commands, so ``gen``,
``verify`` and ``oracle`` neither load nor compile them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from math import comb

from .decomp import check_border
from .errors import (
    CertificateCheckError,
    DegenerateDecompositionError,
    DrawsExhaustedError,
    PoleAtZero,
    VerificationError,
)
from .oracle import catalecticant_bound, gen_family, sylvester_rank
from .serialize import (
    FormatError,
    check_shape,
    dumps_document,
    read_document,
    report_to_json,
    write_document,
)

# `oracle` builds the s-th catalecticant for every s, comb(degree +
# 2 nvars - 1, degree) entries in all.  At this ceiling a form with small
# nonzero coefficients throughout takes about 11 s on a 2-vCPU host; the
# largest shipped input, multibase d = 12, needs 50,388.
MAX_CATALECTICANT_ENTRIES = 60_000

# `gen --family random` redraws up to 2000 certificates of --rank summands.
# At this ceiling all 2000 draws (4 variables, degree 3, seed 7) took 7.1 s
# on a 2-vCPU host; above it most draws have a pole (rank 20 ran out of
# draws on 5 of 8 seeds at 3 variables, degree 4).
MAX_RANDOM_RANK = 16


def _out(obj) -> None:
    print(json.dumps(obj, sort_keys=True, default=str))


# variables of each generated family; ``random`` takes ``--nvars``
_FAMILY_NVARS = {"tangent": 2, "osculating": 2, "multibase": 4}


def cmd_gen(args) -> int:
    nvars = _FAMILY_NVARS.get(args.family, args.nvars)
    if args.d is not None and nvars is not None:
        check_shape(nvars, args.d)  # before the generator runs or anything is written
    if args.rank is not None and args.rank > MAX_RANDOM_RANK:
        raise FormatError(f"--rank {args.rank} is past the ceiling of {MAX_RANDOM_RANK}")
    f, B = gen_family(
        args.family, d=args.d, j=args.j, nvars=args.nvars, rank=args.rank, seed=args.seed
    )
    bits = [args.family]
    if args.d is not None:
        bits.append(f"d{args.d}")
    if args.family == "osculating":
        bits.append(f"j{args.j}")
    if args.family == "random":
        bits.append(f"n{args.nvars}_r{args.rank}_s{args.seed}")
    stem = "_".join(bits)
    poly_path = args.out_poly or f"{stem}_poly.json"
    border_path = args.out_border or f"{stem}_border.json"
    write_document(poly_path, "polynomial", f)
    write_document(border_path, "border", B)
    # read back and verify what actually landed on disk
    _, f2 = read_document(poly_path, "polynomial")
    _, B2 = read_document(border_path, "border")
    res = check_border(B2, f2)
    if not res.ok:
        print(f"error: written pair fails verification: {res.reason}", file=sys.stderr)
        return 1
    _out({"poly": poly_path, "border": border_path, "verified": True})
    return 0


def cmd_verify(args) -> int:
    _, target = read_document(args.target, "polynomial")
    if args.type == "border":
        _, B = read_document(args.decomposition, "border")
        try:
            res = check_border(B, target)
        except DegenerateDecompositionError as exc:
            _out({"ok": False, "reason": str(exc), "witness": None})
            return 1
        if res.ok:
            _out({"ok": True, "q": res.q})
            return 0
        _out(
            {
                "ok": False,
                "reason": res.reason,
                "witness": list(res.witness) if res.witness else None,
            }
        )
        return 1
    _, W = read_document(args.decomposition, "waring")
    if W.nvars != target.nvars or W.degree != target.degree:
        raise FormatError("decomposition shape does not match the target")
    diff = W.expand() - target
    if diff.is_zero:
        _out({"ok": True})
        return 0
    _out({"ok": False, "witness": list(diff.monomials()[0])})
    return 1


def cmd_deborder(args) -> int:
    from .deborder import DeborderConfig, deborder

    _, B = read_document(args.border, "border")
    _, f = read_document(args.poly, "polynomial")
    cfg = DeborderConfig(base_threshold=args.base_threshold, y_size=args.y_size)
    W, report = deborder(f, B, cfg)
    payload = report_to_json(report, asdict(cfg))
    if args.out:
        write_document(args.out, "waring", W)
    if args.report:
        write_document(args.report, "report", payload)
    sys.stdout.write(dumps_document("report", payload))
    return 0 if report.verified else 1


def cmd_oracle(args) -> int:
    _, f = read_document(args.target, "polynomial")
    if args.binary and f.nvars != 2:
        print(
            f"error: --binary needs a 2-variable form, got {f.nvars} variables",
            file=sys.stderr,
        )
        return 2
    entries = comb(f.degree + 2 * f.nvars - 1, f.degree)
    if entries > MAX_CATALECTICANT_ENTRIES:
        print(
            f"error: the catalecticants have {entries} entries in all, past the "
            f"ceiling of {MAX_CATALECTICANT_ENTRIES}",
            file=sys.stderr,
        )
        return 2
    payload = {
        "nvars": f.nvars,
        "degree": f.degree,
        "catalecticant": [catalecticant_bound(f, s) for s in range(f.degree + 1)],
    }
    if args.binary:
        wr, bwr = sylvester_rank(f)
        payload["wr"] = wr
        payload["bwr"] = bwr
    _out(payload)
    return 0


def cmd_bound(args) -> int:
    from .deborder import bound_digits, paper_bound

    # Python refuses to print an int longer than its string conversion
    # limit (0: none; Python before 3.10.7 has none), so a ceiling past it
    # is refused before it is computed
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.d >= 1 and args.r >= 1:
        digits = bound_digits(args.d, args.r)
        if digits > limit:
            print(
                f"error: the ceiling for r = {args.r} has {digits} decimal digits, "
                f"more than the {limit} Python converts to a string",
                file=sys.stderr,
            )
            return 2
    print(paper_bound(args.d, args.r))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="waring",
        description="Exact debordering of border Waring decompositions.",
    )
    sub = p.add_subparsers(dest="command", metavar="command", required=True)

    g = sub.add_parser("gen", help="write a (polynomial, border certificate) pair")
    g.add_argument(
        "--family",
        required=True,
        choices=("tangent", "osculating", "multibase", "random"),
    )
    g.add_argument("--d", type=int, help="degree")
    g.add_argument("--j", type=int, help="osculating order")
    g.add_argument("--nvars", type=int, help="variables (random family)")
    g.add_argument("--rank", type=int, help="summand count (random family)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-poly", help="target polynomial path")
    g.add_argument("--out-border", help="certificate path")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="exactly verify a decomposition against a target")
    v.add_argument("--type", required=True, choices=("waring", "border"))
    v.add_argument("decomposition", help="decomposition document")
    v.add_argument("target", help="polynomial document")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("deborder", help="convert a border certificate to a Waring one")
    d.add_argument("--border", required=True, help="border certificate document")
    d.add_argument("--poly", required=True, help="target polynomial document")
    d.add_argument("--out", help="write the Waring decomposition here")
    d.add_argument("--report", help="write the report document here")
    d.add_argument(
        "--base-threshold", type=int, default=4, dest="base_threshold",
        help="solve densely at or below this rank; changes a route only with "
        "--y-size, or above rank 100 with a threshold above 100")
    d.add_argument(
        "--y-size", type=int, default=None, dest="y_size",
        help="Y-block width, at least 1 (default floor(10 sqrt(rank)), which "
        "holds every pivot up to rank 100, so the split needs this flag there)")
    d.set_defaults(func=cmd_deborder)

    o = sub.add_parser("oracle", help="independent rank bounds for a polynomial")
    o.add_argument("target", help="polynomial document")
    o.add_argument("--binary", action="store_true", help="also run the binary-form rank oracle")
    o.set_defaults(func=cmd_oracle)

    b = sub.add_parser("bound", help="print the certified a-priori rank ceiling")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.set_defaults(func=cmd_bound)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, DegenerateDecompositionError, PoleAtZero) as exc:
        diag = {
            "error": "verification",
            "message": str(exc),
            "witness": getattr(exc, "witness", None),
        }
        print(json.dumps(diag, sort_keys=True, default=str), file=sys.stderr)
        return 1
    except CertificateCheckError as exc:
        diag = {"lemma": exc.check, "message": str(exc), "witness": exc.witness}
        print(json.dumps(diag, sort_keys=True, default=str), file=sys.stderr)
        return 3
    except (ValueError, DrawsExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
