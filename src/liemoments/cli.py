"""Command line interface.

Every command prints one JSON document on stdout.  Exact results are
reduced fractions carried as decimal strings, so output is byte-stable
across runs and platforms: keys are sorted, separators fixed, and the
metadata block contains no host-specific data.  Exit codes: 2 for parse
or domain errors and for results that overflow or are not finite in
floating point, 3 for queries outside the stable range (with a pointer to
mc-verify), 4 for internal consistency faults.

Flags are the only input.  Each command accepts just the flags it reads,
plus `--pretty`, so a flag given to any other command is a parse error:
`--samples`, `--seed` and `--threads` belong to mc-verify, `--cache-dir`
(default `$LIEMOMENTS_CACHE_DIR`) to char-table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .characters import character_table
from .config import DEFAULT_TOLERANCES
from .errors import (
    ConsistencyError,
    DegeneracyError,
    ResourceBoundError,
    StableRangeError,
)
from .expectations import expect_trace_product, expect_twisted
from .groups import Family, GroupSpec
from .lr import branching_decomposition, lr_coefficient
from .matchings import fpf_involutions_lds, g_bruteforce, g_closed
from .montecarlo import (
    PhiObservable,
    TraceProductObservable,
    TwistedObservable,
    TwistedPhiObservable,
    estimate,
)
from .partitions import Partition, partitions_of
from .szego import FourierData, SchurSpecialization, johansson_limit, twisted_asymptotic

SCHEMA_VERSION = 4
#: Default of `char-table --cache-dir`.
ENV_CACHE_DIR = "LIEMOMENTS_CACHE_DIR"
#: mc-verify reports agreement with the exact reference when |z| <= this.
AGREE_Z = 4.0


class CLIError(Exception):
    """Unusable arguments; maps to exit code 2."""


_CONV_EXACT = (
    "exact values are reduced fractions with decimal-string numerator and denominator"
)
_CONV_RANK = "rank n means matrix size 2n for sp and so-even, and 2n+1 for so-odd"
_CONV_RATIO = "the limiting twisted ratio does not depend on the group family"
_CONV_ASYMP = (
    "limits are for the average of exp(sum_i c_i tr(g^i)) divided by exp(n*c0)"
)
_CONV_MC = (
    "each sample is a pure function of (seed, sample index); estimates do not "
    "depend on the thread count"
)


def _exact_pair(value) -> dict:
    frac = Fraction(value)
    return {"numerator": str(frac.numerator), "denominator": str(frac.denominator)}


def _result(
    query: dict,
    *,
    exact=None,
    float_value=None,
    mc=None,
    stable_range: bool = True,
    conventions=(),
    extra: dict | None = None,
) -> dict:
    doc = {
        "query": query,
        "metadata": {
            "stable_range": stable_range,
            "conventions": list(conventions),
            "versions": {"package": __version__, "schema": SCHEMA_VERSION},
        },
    }
    if exact is not None:
        doc["exact"] = _exact_pair(exact)
        if float_value is None:
            try:
                float_value = float(exact)
            except OverflowError:
                float_value = None
    if float_value is not None:
        doc["float"] = float_value
    if mc is not None:
        doc["mc"] = mc
    if extra:
        doc.update(extra)
    return doc


def _parse_rank(text: str) -> int | None:
    if text.strip().lower() == "stable":
        return None
    try:
        n = int(text)
    except ValueError:
        raise CLIError(f"rank must be a positive integer or 'stable', got {text!r}")
    if n < 1:
        raise CLIError(f"rank must be at least 1, got {n}")
    return n


def _parse_group(group_text: str, rank_text: str) -> GroupSpec:
    return GroupSpec(Family.parse(group_text), _parse_rank(rank_text))


def _rank_echo(G: GroupSpec):
    return "stable" if G.is_stable else G.rank


# ---------------------------------------------------------------------------
# command handlers


def cmd_expect_trace(args) -> dict:
    G = _parse_group(args.group, args.rank)
    lam = Partition.parse(args.lam)
    value = expect_trace_product(G, lam)
    query = {
        "command": "expect-trace",
        "group": G.family.value,
        "rank": _rank_echo(G),
        "lambda": str(lam),
    }
    return _result(
        query,
        exact=value,
        stable_range=G.covers_weight(lam.weight),
        conventions=[_CONV_EXACT, _CONV_RANK],
    )


def cmd_expect_twisted(args) -> dict:
    G = _parse_group(args.group, args.rank)
    gamma = Partition.parse(args.gamma)
    lam = Partition.parse(args.lam)
    value = expect_twisted(G, gamma, lam, verify=args.verify)
    query = {
        "command": "expect-twisted",
        "group": G.family.value,
        "rank": _rank_echo(G),
        "gamma": str(gamma),
        "lambda": str(lam),
        "verified": bool(args.verify),
    }
    return _result(
        query,
        exact=value,
        stable_range=G.covers_weight(lam.weight),
        conventions=[_CONV_EXACT, _CONV_RANK],
    )


def cmd_ratio(args) -> dict:
    gamma = Partition.parse(args.gamma)
    f = FourierData.parse(args.coeffs)
    spec = SchurSpecialization.compute(gamma, f, verify=args.verify)
    query = {
        "command": "ratio",
        "gamma": str(gamma),
        "coeffs": args.coeffs,
        "verified": bool(args.verify),
    }
    if f.exact:
        return _result(query, exact=spec.value, conventions=[_CONV_EXACT, _CONV_RATIO])
    return _result(query, float_value=float(spec.value), conventions=[_CONV_RATIO])


def cmd_asymptotics(args) -> dict:
    family = Family.parse(args.family)
    f = FourierData.parse(args.coeffs)
    query = {
        "command": "asymptotics",
        "family": family.value,
        "coeffs": args.coeffs,
    }
    if args.gamma is not None:
        gamma = Partition.parse(args.gamma)
        query["gamma"] = str(gamma)
        value = twisted_asymptotic(family, gamma, f)
    else:
        value = johansson_limit(family, f)
    return _result(query, float_value=value, conventions=[_CONV_ASYMP])


def cmd_branch(args) -> dict:
    text = args.family.strip().lower()
    family = Family.SO_EVEN if text == "so" else Family.parse(text)
    lam = Partition.parse(args.lam)
    target = branching_decomposition(lam, family)
    terms = sorted(target.coeffs.items(), key=lambda kv: kv[0].sort_key)
    expansion = [{"target": str(mu), "multiplicity": m} for mu, m in terms]
    total = sum(m for _, m in terms)
    query = {
        "command": "branch",
        "family": "sp" if family is Family.SP else "so",
        "lambda": str(lam),
    }
    return _result(
        query,
        exact=total,
        conventions=[_CONV_EXACT],
        extra={"expansion": expansion},
    )


def cmd_char_table(args) -> dict:
    k = args.k
    if k < 0:
        raise CLIError(f"k must be non-negative, got {k}")
    table = character_table(k, cache_dir=args.cache_dir)
    query = {"command": "char-table", "k": k}
    payload = {
        "k": k,
        "labels": [str(lab) for lab in table.labels],
        "classes": [str(mu) for mu in table.classes],
        "values": [[str(v) for v in row] for row in table.values],
    }
    return _result(
        query,
        exact=len(table.labels),
        conventions=[_CONV_EXACT],
        extra={"table": payload},
    )


def cmd_lr(args) -> dict:
    lam = Partition.parse(args.lam)
    mu = Partition.parse(args.mu)
    nu = Partition.parse(args.nu)
    query = {
        "command": "lr",
        "lambda": str(lam),
        "mu": str(mu),
        "nu": str(nu),
    }
    return _result(query, exact=lr_coefficient(lam, mu, nu), conventions=[_CONV_EXACT])


def cmd_g(args) -> dict:
    lam = Partition.parse(args.lam)
    method = args.method.strip().lower()
    stable_range = True
    if method == "closed":
        value = g_closed(lam)
    elif method == "brute":
        value = g_bruteforce(lam)
    elif method.startswith("rains:"):
        try:
            bound = int(method.split(":", 1)[1])
        except ValueError:
            raise CLIError(f"rains bound must be an integer, got {args.method!r}")
        if bound < 1:
            raise CLIError(f"rains bound must be at least 1, got {bound}")
        if lam and lam.parts[0] != 1:
            raise CLIError(
                "the rains method counts fixed-point-free involutions and only "
                "applies to all-ones partitions"
            )
        value = fpf_involutions_lds(lam.weight, bound)
        stable_range = bound >= lam.weight
    else:
        raise CLIError(
            f"unknown method {args.method!r}; expected closed, brute or rains:N"
        )
    query = {"command": "g", "lambda": str(lam), "method": method}
    return _result(
        query, exact=value, stable_range=stable_range, conventions=[_CONV_EXACT]
    )


def cmd_mc_verify(args) -> dict:
    if (args.lam is None) == (args.coeffs is None):
        raise CLIError("mc-verify needs one observable: pass --lambda or --coeffs")
    family = Family.parse(args.group)
    G = GroupSpec(family, args.n)
    gamma = Partition.parse(args.gamma) if args.gamma is not None else None
    query = {"command": "mc-verify", "group": family.value, "n": args.n}
    reference = None
    observable_weight = None

    if args.coeffs is not None:
        f = FourierData.parse(args.coeffs)
        query["coeffs"] = args.coeffs
        if gamma is not None:
            query["gamma"] = str(gamma)
            observable = TwistedPhiObservable(gamma, f)
        else:
            observable = PhiObservable(f)
    else:
        lam = Partition.parse(args.lam)
        query["lambda"] = str(lam)
        observable_weight = lam.weight
        if gamma is not None:
            query["gamma"] = str(gamma)
            observable = TwistedObservable(gamma, lam)
            try:
                reference = expect_twisted(G, gamma, lam)
            except StableRangeError:
                reference = None
        else:
            observable = TraceProductObservable(lam)
            try:
                reference = expect_trace_product(G, lam)
            except StableRangeError:
                reference = None

    query["samples"] = args.samples
    query["seed"] = args.seed
    est = estimate(G, observable, args.samples, args.seed, threads=args.threads)
    mc = {
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "tolerances": DEFAULT_TOLERANCES.as_dict(),
    }
    if reference is not None and est.stderr > 0:
        mc["z"] = (est.mean - float(reference)) / est.stderr
        mc["agree"] = abs(mc["z"]) <= AGREE_Z
    stable = (
        G.covers_weight(observable_weight) if observable_weight is not None else False
    )
    return _result(
        query,
        exact=reference,
        mc=mc,
        stable_range=stable,
        conventions=[_CONV_RANK, _CONV_MC],
    )


def cmd_selftest(args) -> dict:
    checks: dict[str, int] = {}

    count = 0
    for k in (2, 4, 6, 8):
        for lam in partitions_of(k):
            if g_closed(lam) != g_bruteforce(lam):
                raise ConsistencyError(
                    f"matching count mismatch at {lam}: "
                    f"closed {g_closed(lam)}, brute force {g_bruteforce(lam)}"
                )
            count += 1
    checks["matching-counts"] = count

    count = 0
    for family in Family:
        G = GroupSpec.stable(family)
        for k in range(6):
            for lam in partitions_of(k):
                for j in range(k + 1):
                    for gamma in partitions_of(j):
                        expect_twisted(G, gamma, lam, verify=True)
                        count += 1
    checks["twisted-routes"] = count

    f = FourierData.parse("c1=1/2,c2=-1/3,c3=1/5,c4=-1/7")
    count = 0
    for j in range(5):
        for gamma in partitions_of(j):
            SchurSpecialization.compute(gamma, f, verify=True)
            count += 1
    checks["ratio-forms"] = count

    query = {"command": "selftest"}
    return _result(query, exact=sum(checks.values()), extra={"checks": checks})


# ---------------------------------------------------------------------------
# output


def _print_pretty(doc: dict) -> None:
    query = doc.get("query", {})
    print("query:")
    for key in sorted(query):
        print(f"  {key}: {query[key]}")
    if "exact" in doc:
        pair = doc["exact"]
        text = pair["numerator"]
        if pair["denominator"] != "1":
            text += "/" + pair["denominator"]
        print(f"exact: {text}")
    if "float" in doc:
        print(f"float: {doc['float']}")
    if "mc" in doc:
        mc = doc["mc"]
        line = f"mc: mean={mc['mean']:.6g} stderr={mc['stderr']:.3g} samples={mc['samples']} seed={mc['seed']}"
        if "z" in mc:
            line += f" z={mc['z']:+.2f} agree={str(mc['agree']).lower()}"
        print(line)
    if "expansion" in doc:
        print("expansion:")
        for term in doc["expansion"]:
            print(f"  {term['target']}: {term['multiplicity']}")
    if "table" in doc:
        table = doc["table"]
        labels, classes, values = table["labels"], table["classes"], table["values"]
        left = max(len(s) for s in labels) if labels else 1
        widths = [
            max(len(classes[j]), max(len(row[j]) for row in values))
            for j in range(len(classes))
        ]
        header = " " * left + "  " + "  ".join(
            c.rjust(w) for c, w in zip(classes, widths)
        )
        print(header)
        for lab, row in zip(labels, values):
            print(
                lab.ljust(left)
                + "  "
                + "  ".join(v.rjust(w) for v, w in zip(row, widths))
            )
    if "checks" in doc:
        print("checks:")
        for name in sorted(doc["checks"]):
            print(f"  {name}: {doc['checks'][name]}")
    meta = doc["metadata"]
    print(f"stable-range: {str(meta['stable_range']).lower()}")
    for note in meta["conventions"]:
        print(f"note: {note}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")

    parser = argparse.ArgumentParser(
        prog="liemoments",
        description=(
            "Exact and Monte Carlo moments of trace products over the compact "
            "classical groups."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "expect-trace",
        parents=[common],
        help="exact average of a product of power traces",
    )
    p.add_argument("--group", required=True, help="sp, so-even or so-odd")
    p.add_argument("--rank", default="stable", help="positive integer or 'stable'")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTITION")
    p.set_defaults(handler=cmd_expect_trace)

    p = sub.add_parser(
        "expect-twisted",
        parents=[common],
        help="exact average of a character times a product of power traces",
    )
    p.add_argument("--group", required=True)
    p.add_argument("--rank", default="stable")
    p.add_argument("--gamma", required=True, metavar="PARTITION")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTITION")
    p.add_argument(
        "--verify",
        action="store_true",
        help="evaluate both independent routes and fail on mismatch",
    )
    p.set_defaults(handler=cmd_expect_twisted)

    p = sub.add_parser(
        "ratio", parents=[common], help="limiting twisted-to-plain ratio"
    )
    p.add_argument("--gamma", required=True, metavar="PARTITION")
    p.add_argument("--coeffs", required=True, metavar="COEFFS")
    p.add_argument(
        "--verify",
        action="store_true",
        help=(
            "also evaluate the Jacobi-Trudi determinant, which reads no "
            "character value, and fail unless it equals the character sum"
        ),
    )
    p.set_defaults(handler=cmd_ratio)

    p = sub.add_parser(
        "asymptotics",
        parents=[common],
        help="large-rank limit of the exponential class function average",
    )
    p.add_argument("--family", required=True, help="sp, so-even or so-odd")
    p.add_argument("--coeffs", required=True, metavar="COEFFS")
    p.add_argument("--gamma", default=None, metavar="PARTITION")
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser(
        "branch",
        parents=[common],
        help="restriction of a Schur character to sp or so",
    )
    p.add_argument("--family", required=True, help="sp or so")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTITION")
    p.set_defaults(handler=cmd_branch)

    p = sub.add_parser(
        "char-table", parents=[common], help="symmetric group character table"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--cache-dir",
        default=os.environ.get(ENV_CACHE_DIR) or None,
        help=f"character table cache directory (default: ${ENV_CACHE_DIR})",
    )
    p.set_defaults(handler=cmd_char_table)

    p = sub.add_parser(
        "lr", parents=[common], help="Littlewood-Richardson coefficient"
    )
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTITION")
    p.add_argument("--mu", required=True, metavar="PARTITION")
    p.add_argument("--nu", required=True, metavar="PARTITION")
    p.set_defaults(handler=cmd_lr)

    p = sub.add_parser(
        "g", parents=[common], help="invariant matching count of a cycle type"
    )
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTITION")
    p.add_argument(
        "--method",
        default="closed",
        help="closed, brute, or rains:N for the bounded-decreasing-subsequence count",
    )
    p.set_defaults(handler=cmd_g)

    p = sub.add_parser(
        "mc-verify",
        parents=[common],
        help="Monte Carlo estimate with exact reference and z-score when available",
    )
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True, help="rank of the sampled group")
    p.add_argument("--lambda", dest="lam", default=None, metavar="PARTITION")
    p.add_argument("--gamma", default=None, metavar="PARTITION")
    p.add_argument("--coeffs", default=None, metavar="COEFFS")
    p.add_argument("--samples", type=int, default=100_000, help="sample count")
    p.add_argument("--seed", type=int, default=0, help="base seed for sampling")
    p.add_argument(
        "--threads", type=int, default=None, help="worker threads (default: CPU count)"
    )
    p.set_defaults(handler=cmd_mc_verify)

    p = sub.add_parser(
        "selftest",
        parents=[common],
        help="run the built-in cross-validation ledger",
    )
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.handler(args)
    except StableRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "suggestion: use 'liemoments mc-verify' with a finite rank to estimate "
            "below-stable-range averages",
            file=sys.stderr,
        )
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency fault: {exc}", file=sys.stderr)
        return 4
    except DegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:
        print(f"error: result out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except (CLIError, ValueError, ResourceBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        print("error: result is not finite in floating point", file=sys.stderr)
        return 2
    if args.pretty:
        _print_pretty(doc)
    else:
        sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
