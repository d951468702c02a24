"""Command-line interface.

Subcommands: check, density, construct, verify-prop, certify, search,
phi-levelset.  Exit codes: 0 success / property holds, 1 property fails
(witness or violation found), 2 usage or I/O error.  The library returns
values and this module alone formats them: machine-readable output prints
exact rationals as "num/den"; timings and node counts go to stderr under
--stats so stdout stays deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact
from fractions import Fraction
from itertools import accumulate, repeat, starmap
from math import gcd
from pathlib import Path
from typing import Iterator

from . import constructions, density, productfree, proofkit, search
from .sets import (
    DEFAULT_EXPLICIT_HORIZON,
    Dfa,
    LayeredSet,
    StateBudgetError,
    read_dfa,
    read_explicit,
    write_dfa,
    write_explicit,
)
from .words import Alphabet, FormatError


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r} (use forms like 1/10)") from exc


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad length list {text!r} (use forms like 1,2,5)") from exc


def _load_set(args) -> LayeredSet | Dfa:
    # _add_input_flags makes exactly one of --dfa and --words required.
    if args.dfa is not None:
        return read_dfa(Path(args.dfa).read_text())
    return read_explicit(Path(args.words).read_text())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    s = _load_set(args)
    if isinstance(s, LayeredSet):
        witness = productfree.check_explicit(s)
    else:
        witness = productfree.check_regular(s)
    if witness is None:
        print("product-free")
        return 0
    print(witness.x.text)
    print(witness.y.text)
    print(witness.z.text)
    return 1


def cmd_density(args) -> int:
    prof = density.profile(_load_set(args), args.horizon)
    with _all_digits():
        _emit(_density_text(prof, args), args.out)
    return 0


def _density_text(prof: density.DensityProfile, args) -> str:
    if args.format == "csv":
        return "".join(["n,count,total,density_num,density_den\n",
                        *starmap(_CSV_ROW.format, _rows(prof))])
    min_window = args.min_window
    if min_window is None:
        # A horizon below the default length gets one window: all of it.
        min_window = min(density.DEFAULT_MIN_WINDOW, prof.horizon)
    asym = density.upper_asymptotic(prof)
    ban = density.upper_banach(prof, min_window)
    if args.format == "json":
        head = json.dumps({
            "horizon": prof.horizon,
            "extendable": prof.extendable,
            "asymptotic": _limit_fields(asym),
            "banach": dict(_limit_fields(ban), min_window=min_window),
        }, indent=2)
        # The profile rows as json.dumps(indent=2) would lay them out; its
        # indenting encoder is pure Python and costs several times more.
        rows = ",\n".join(starmap(_JSON_ROW.format, _rows(prof)))
        return f'{head[:-2]},\n  "profile": [\n{rows}\n  ]\n}}\n'
    lines = [
        f"horizon {prof.horizon}",
        _describe_limit("upper asymptotic density", asym),
        _describe_limit("upper Banach density", ban),
    ]
    return "\n".join(lines) + "\n"


_CSV_ROW = "{},{},{},{},{}\n"
_JSON_ROW = (
    '    {{\n      "n": {},\n      "count": {},\n      "total": {},\n'
    '      "density": "{}/{}"\n    }}'
)
# Exact decimal arithmetic: q**n is an integer of at most MAX_PREC digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


def _rows(p: density.DensityProfile) -> Iterator[tuple]:
    """(n, count, total, density numerator, denominator) per layer, each
    reduced by one gcd; when it is 1 the count and total text serve again.
    str() of an int takes time quadratic in its digits and of a Decimal
    linear, so the totals are printed from a running Decimal product."""
    powers = map(str, accumulate(repeat(Decimal(p.q), p.horizon), _EXACT.multiply))
    for n, count, total, t in zip(range(1, p.horizon + 1), p.counts, p.totals, powers):
        c = str(count)
        g = gcd(count, total)
        yield (n, c, t, c, t) if g == 1 else (n, c, t, count // g, total // g)


@contextmanager
def _all_digits() -> Iterator[None]:
    """Lift the interpreter's limit on int-to-decimal conversion (4,300
    digits by default) while computed integers are printed, and restore it;
    input is parsed under the limit."""
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _limit_fields(limit: density.DensityLimit) -> dict:
    return {
        "value": _frac(limit.value),
        "exact": limit.exact,
        "finite_max": _frac(limit.finite_max),
        "window": [limit.window.start, limit.window.end],
    }


def _describe_limit(label: str, limit: density.DensityLimit) -> str:
    kind = "exactly" if limit.exact else "finite-horizon estimate"
    return (
        f"{label}: {kind} {_frac(limit.value)} "
        f"(≈ {float(limit.value):.6f}), window "
        f"[{limit.window.start}, {limit.window.end}]"
    )


def cmd_construct(args) -> int:
    alphabet = Alphabet(args.alphabet)
    if args.mode == "odd-occurrence":
        dfa = constructions.odd_occurrence(alphabet, args.gamma)
        _emit(write_dfa(dfa), args.out)
        return 0
    if args.mode == "pathology":
        s = constructions.counting_pathology(alphabet, args.c, args.horizon)
        _emit(write_explicit(s), args.out)
        return 0
    if args.mode == "asymmetric":
        triple = constructions.asymmetric_triple(alphabet, args.n, _parse_fraction(args.eps))
        prefix = args.out or "asymmetric"
        Path(f"{prefix}.w.words").write_text(write_explicit(triple.w_set))
        for tag, dfa in (("x", triple.x), ("y", triple.y), ("z", triple.z)):
            Path(f"{prefix}.{tag}.dfa").write_text(write_dfa(dfa))
        print(f"wrote {prefix}.w.words and {prefix}.{{x,y,z}}.dfa")
        return 0
    if args.mode == "random":
        s = constructions.greedy_random_productfree(
            alphabet, args.max_len, args.seed, args.schedule
        )
        _emit(write_explicit(s), args.out)
        return 0
    raise ValueError(f"unknown construct mode {args.mode!r}")


def cmd_verify_prop(args) -> int:
    s = _load_set(args)
    lengths = _parse_lengths(args.lengths)
    report = proofkit.chained_inequality_check(s, lengths, args.n)
    with _all_digits():
        payload = {
            "n": report.n,
            "lengths": list(report.lengths),
            "refined_terms": [_frac(t) for t in report.refined_terms],
            "lhs": _frac(report.lhs),
            "mid": _frac(report.mid),
            "ok": report.ok,
        }
    print(json.dumps(payload, indent=2))
    return 0 if report.ok else 1


def cmd_certify(args) -> int:
    s = _load_set(args)
    eps = _parse_fraction(args.eps)
    with _all_digits():
        prof = density.profile(s, args.horizon)
        horizon = prof.horizon
        lseq, trace = proofkit.extract_lsequence(s, prof, eps, args.min_window)
        if args.trace:
            with open(args.trace, "w") as fh:
                for probe in trace.probes:
                    fh.write(json.dumps({
                        "stage": probe.stage,
                        "window": [probe.window.start, probe.window.end],
                        "mean": _frac(probe.mean),
                        "qualifies": probe.qualifies,
                        "chosen": probe.chosen,
                    }) + "\n")

        certificates = []
        all_hold = True
        if lseq.k >= 1:
            lk = lseq.lengths[-1]
            for start in range(lk + 1, horizon - args.min_window + 2):
                window = density.WindowSpec(start, start + args.min_window - 1)
                cert = proofkit.window_bound_certificate(prof, window, lseq)
                certificates.append({
                    "window": [window.start, window.end],
                    "bound": _frac(cert.bound),
                    "mean": _frac(cert.mean),
                    "holds": cert.holds,
                })
                all_hold = all_hold and cert.holds
        payload = {
            "policy": trace.policy,
            "stop_reason": trace.stop_reason,
            "lengths": list(lseq.lengths),
            "terms": [_frac(t) for t in lseq.terms],
            "cumulative": [_frac(c) for c in lseq.cumulative],
            "window_certificates": certificates,
            "all_hold": all_hold,
        }
    print(json.dumps(payload, indent=2))
    return 0 if all_hold else 1


def cmd_search(args) -> int:
    alphabet = Alphabet(args.alphabet)
    started = time.monotonic()
    result = search.max_productfree(alphabet, args.horizon, args.budget)
    elapsed = time.monotonic() - started
    # The total layer density is the mean times the horizon.
    value = result.value * args.horizon if args.objective == "total" else result.value
    payload = {
        "alphabet": alphabet.symbols,
        "horizon": result.horizon,
        "objective": args.objective,
        "value": _frac(value),
        "witness_layer_counts": [
            result.best.layer_count(n) for n in range(1, result.horizon + 1)
        ],
        "optimal": result.proved,
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        Path(args.out).write_text(write_explicit(result.best))
    if args.stats:
        print(f"nodes={result.nodes} seconds={elapsed:.3f}", file=sys.stderr)
    return 0


def cmd_phi_levelset(args) -> int:
    report = proofkit.phi_level_set(density.profile(_load_set(args), args.horizon))
    payload = {
        "horizon": report.horizon,
        "threshold": "(sqrt(5)-1)/2",
        "level_set": list(report.level_set),
        "sum_free": report.sum_free,
        "violation": list(report.violation) if report.violation else None,
    }
    print(json.dumps(payload, indent=2))
    return 0 if report.sum_free else 1


# ---------------------------------------------------------------------------
# Parser wiring


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dfa", help="automaton file")
    group.add_argument("--words", help="word-list file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once on first use: building the tree of
    subcommands costs far more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="prodfree",
        description="Exact analysis of product-free subsets of the free semigroup",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide product-freeness, print any witness")
    _add_input_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("density", help="exact density profile and limit estimates")
    _add_input_flags(p)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--min-window", type=int, default=None, help=(
        f"least Banach window (default min({density.DEFAULT_MIN_WINDOW}, horizon))"))
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("construct", help="build one of the named sets")
    modes = p.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("odd-occurrence")
    m.add_argument("--gamma", required=True, help="symbols counted for parity")
    m = modes.add_parser("pathology")
    m.add_argument("--c", type=int, required=True)
    m.add_argument("--horizon", type=int, default=None)
    m = modes.add_parser("asymmetric")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--eps", required=True, help="rational like 1/10")
    m = modes.add_parser("random")
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--max-len", type=int, default=DEFAULT_EXPLICIT_HORIZON)
    m.add_argument("--schedule", choices=("uniform", "odd-first"), default="uniform")
    for m in modes.choices.values():
        m.add_argument("--alphabet", default="ab")
        m.add_argument("--out", help="output file (prefix for asymmetric)")
        m.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify-prop", help="check the chained density inequality")
    _add_input_flags(p)
    p.add_argument("--lengths", required=True, help="comma list like 1,2")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify_prop)

    p = sub.add_parser("certify", help="extract a length sequence and window bounds")
    _add_input_flags(p)
    p.add_argument("--eps", default="1/16", help="rational like 1/16")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--min-window", type=int, default=density.DEFAULT_MIN_WINDOW)
    p.add_argument("--trace", help="JSONL trace file, one record per window")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", help="exact maximum-density search over a ball")
    p.add_argument("--alphabet", default="ab")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--objective", choices=("mean", "total"), default="mean")
    p.add_argument("--budget", type=int, default=search.DEFAULT_NODE_BUDGET,
                   help="search node budget (default %(default)s)")
    p.add_argument("--out", help="write the witness as a word list")
    p.add_argument("--stats", action="store_true",
                   help="print node count and timing to stderr")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("phi-levelset", help="layers denser than phi, sum-free check")
    _add_input_flags(p)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_phi_levelset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError, StateBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
