"""Batch command line for the sign oracles, catalog and experiments.

Exit codes: 0 success, 1 malformed input, 2 mathematically inconclusive
(undecided comparisons, degenerate probes, too-short stabilization windows),
141 (128 + SIGPIPE) when the reader of standard output closes it early.
Output is deterministic for fixed flags; --format picks text (key=value
lines), json (one schema-tagged record per line) or csv (a header and rows).
The commands turn their results, and the experiments' reports and rows
(named tuples), into output rows, adding the inputs they parsed (ball
length, k_max, depth target, spec name, conjugator pattern, window); _emit is
the one writer of all three formats.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import functools
import json
import os
import sys
from pathlib import Path

from .braids import BallSpec, BraidWord, parse_braid
from .catalog import calibrate_conventions, catalog
from .errors import (
    BudgetExceededError,
    CalibrationError,
    MalformedInputError,
    SearchFailureError,
    SoulValidationError,
    StreamGrowthError,
    UndecidedComparisonError,
    check_integer,
)
from .experiments import (
    agreement_radius,
    converge_conjugates_experiment,
    converge_extensions_experiment,
    limit_probe_experiment,
    small_positive_search,
)
from .nt import (
    NTOrder,
    conrad_witness_search,
    convex_chain_report,
    format_geodesic_spec,
    order_cmp,
    parse_geodesic_spec,
    soul_of,
    totality_probe,
)
from .orders import (
    ConjugatedOrder,
    ConvexExtensionOrder,
    DehornoyOrder,
    OrderOracle,
    ZkIntegerSlope,
    ZkLex,
    ZkQuadraticSlope,
)
from .planar import DEFAULT_DEPTH_CAP

SCHEMA = "braidorders.report.v1"
SIGN_NAMES = {-1: "negative", 0: "zero", 1: "positive"}
CMP_NAMES = {-1: "less", 0: "equal", 1: "greater"}

def _load_spec(token: str, depth_cap: int) -> NTOrder:
    specs = catalog()
    if token in specs:
        return NTOrder(specs[token], depth_cap=depth_cap)
    path = Path(token)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            message = f"cannot read spec file {token!r}: {exc.strerror}"
            raise MalformedInputError(message) from None
        return NTOrder(parse_geodesic_spec(text), depth_cap=depth_cap)
    raise MalformedInputError(f"no catalog entry or spec file named {token!r}")


# each soul-order form as an error message names it
SOUL_ORDER_FORMS = {"lex": "lex(...)", "slope": "slope(...)", "qslope": "qslope(d; a b, ...)"}


def _soul_order_form(token: str) -> tuple[str, str]:
    """The form of a soul order and the text inside its parentheses."""
    form, _, inner = token.partition("(")
    if form not in SOUL_ORDER_FORMS or not inner.endswith(")"):
        raise MalformedInputError(f"cannot parse soul order {token!r}")
    return form, inner[:-1]


def _parse_soul_order(token: str, soul: tuple[int, ...]) -> ZkLex | ZkIntegerSlope | ZkQuadraticSlope:
    form, inner = _soul_order_form(token)
    k = len(soul)
    try:
        if form == "qslope":
            d_text, rest = inner.split(";", 1)
            d = int(d_text)
            pairs = []
            for part in rest.split(","):
                a_text, b_text = part.split()
                pairs.append((int(a_text), int(b_text)))
        else:
            values = [int(part) for part in inner.split(",")]
    except ValueError as exc:
        message = f"soul order must look like {SOUL_ORDER_FORMS[form]}, got {token!r} ({exc})"
        raise MalformedInputError(message) from None
    if form == "qslope":
        return ZkQuadraticSlope(d, tuple(pairs))
    if form == "slope":
        return ZkIntegerSlope(tuple(values), ZkLex.standard(k))
    axes: list[int] = []
    signs: list[int] = []  # rank-ordered, paired with axes
    for v in values:
        gen = abs(v)
        if gen not in soul:
            raise MalformedInputError(f"lex axis {gen} is not a soul generator of {soul}")
        axes.append(soul.index(gen))
        signs.append(1 if v > 0 else -1)
    return ZkLex(tuple(axes), tuple(signs))


def parse_order(text: str, n: int, depth_cap: int) -> OrderOracle:
    """Grammar: dehornoy | nt:<name-or-file> | conj:<order>:<braid> |
    ext:<order>:<soul-order>; the trailing segment is colon-free."""
    check_integer(depth_cap, "depth cap", 1)  # for every order, not just nt:
    text = text.strip()
    if text == "dehornoy":
        return DehornoyOrder(n)
    if text.startswith("nt:"):
        order = _load_spec(text[3:], depth_cap)
        if order.n != n:
            raise MalformedInputError(
                f"order {text!r} lives in B_{order.n}, but --n {n} was given"
            )
        return order
    if text.startswith("conj:"):
        body = text[5:]
        if ":" not in body:
            raise MalformedInputError(f"conj needs conj:<order>:<braid>, got {text!r}")
        base_text, braid_text = body.rsplit(":", 1)
        braid = parse_braid(braid_text, n)  # names a bad last segment, not the base it would cut
        return ConjugatedOrder(parse_order(base_text, n, depth_cap), braid)
    if text.startswith("ext:"):
        body = text[4:]
        if ":" not in body:
            raise MalformedInputError(f"ext needs ext:<order>:<soul-order>, got {text!r}")
        base_text, soul_text = body.rsplit(":", 1)
        soul_text = soul_text.strip()
        _soul_order_form(soul_text)  # names a bad last segment, not the base it would cut
        base = parse_order(base_text, n, depth_cap)
        if not isinstance(base, NTOrder):
            raise MalformedInputError("ext base must be an nt:<...> order")
        return ConvexExtensionOrder(base, _parse_soul_order(soul_text, base.spec.soul_generators))
    raise MalformedInputError(f"cannot parse order {text!r}")


def _nt_order(args) -> NTOrder:
    order = parse_order(args.order, args.n, args.depth_cap)
    if not isinstance(order, NTOrder):
        raise MalformedInputError(f"{args.command} needs an nt:<...> order")
    return order


def _fields(row) -> dict:
    """A report row's fields by name, braid words as their text."""
    return {
        name: str(value) if isinstance(value, BraidWord) else value
        for name, value in row._asdict().items()
    }


def _emit(
    args, rows: list[dict], json_rows: list[dict] | None = None, csv_header: list | None = None
) -> None:
    """Write rows as key=value lines, JSON lines or CSV.

    JSON writes json_rows in place of rows when given; CSV heads the rows'
    values with csv_header, else with the first row's keys, and writes
    nothing when it has neither.
    """
    if args.format == "json":
        for record in rows if json_rows is None else json_rows:
            print(json.dumps({"schema": SCHEMA, **record}, sort_keys=True))
    elif args.format == "csv":
        header = csv_header or (list(rows[0]) if rows else None)
        if header:
            csv_module.writer(sys.stdout).writerows([header] + [list(r.values()) for r in rows])
    else:
        for record in rows:
            print("  ".join(f"{key}={value}" for key, value in record.items()))


# --- commands -----------------------------------------------------------------


def cmd_sign(args) -> int:
    oracle = parse_order(args.order, args.n, args.depth_cap)
    word = parse_braid(args.braid, args.n)
    value = oracle.sign(word)
    _emit(args, [{"command": "sign", "braid": str(word), "sign": SIGN_NAMES[value]}])
    return 0


def cmd_cmp(args) -> int:
    oracle = parse_order(args.order, args.n, args.depth_cap)
    a = parse_braid(args.left, args.n)
    b = parse_braid(args.right, args.n)
    value = order_cmp(oracle, a, b)
    _emit(args, [{"command": "cmp", "left": str(a), "right": str(b), "cmp": CMP_NAMES[value]}])
    return 0


def cmd_agree(args) -> int:
    o1 = parse_order(args.order, args.n, args.depth_cap)
    o2 = parse_order(args.other, args.n, args.depth_cap)
    report = agreement_radius(o1, o2, BallSpec(args.n, args.ball_length))
    _emit(
        args,
        [
            {
                "command": "agree",
                "radius": report.radius,
                "max_length": args.ball_length,
                "witness": "" if report.witness is None else str(report.witness),
                "witness_signs": ""
                if report.witness_signs is None
                else list(report.witness_signs),
                "undecided_count": report.undecided_count,
            }
        ],
    )
    return 2 if report.undecided_count else 0


def cmd_conrad(args) -> int:
    oracle = parse_order(args.order, args.n, args.depth_cap)
    witness = conrad_witness_search(oracle, args.k_max, BallSpec(args.n, args.ball_length))
    _emit(
        args,
        [
            {
                "command": "conrad",
                "f": str(witness.f),
                "g": str(witness.g),
                "k_verified": args.k_max,
            }
        ],
    )
    return 0


def cmd_soul(args) -> int:
    order = _nt_order(args)
    soul = soul_of(order) if args.validate else order.spec.soul_generators
    _emit(args, [{"command": "soul", "spec": order.spec.name, "soul": list(soul)}])
    return 0


def cmd_chain(args) -> int:
    order = _nt_order(args)
    report = convex_chain_report(order, BallSpec(args.n, args.ball_length))
    records = [
        {
            "command": "chain",
            "level": level,
            "depth": depth,
            "pattern": list(lv.generator_pattern),
            "members_in_ball": lv.members_in_ball,
            "checked": lv.checked,
            "violations": lv.violations,
        }
        for level, (depth, lv) in enumerate(zip(order.spec.separating_depths, report.levels), 1)
    ]
    _emit(args, records)
    return 2 if report.undecided_skipped else 0


def cmd_approx(args) -> int:
    order = _nt_order(args)
    ball = BallSpec(args.n, args.ball_length)
    lo, hi = _parse_range(args.range)
    if args.kind == "conjugates":
        soul = order.spec.soul_generators
        if args.pattern is not None:
            pattern = _slash_pattern(args.pattern, args.n)
        else:
            if not soul:
                raise MalformedInputError("conjugate pattern needed for trivial-soul specs")
            s = soul[-1]
            u = small_positive_search(order, soul, BallSpec(args.n, 2))
            pattern = (s, u)
        rows = converge_conjugates_experiment(order, pattern, range(lo, hi + 1), ball)
        index = "j"
    else:
        rows = converge_extensions_experiment(order, range(max(2, lo), hi + 1), ball)
        index = "M"
    # an extension row counts no undecided words: its finite-type base decides every sign
    json_rows = [{"kind": args.kind, "name": order.spec.name, "undecided_count": 0, **_fields(r)} for r in rows]
    records = [
        {
            index: getattr(r, index),
            "radius": r.radius,
            "witness": "" if r.witness is None else str(r.witness),
            "undecided": json_row["undecided_count"],
        }
        for r, json_row in zip(rows, json_rows)
    ]
    _emit(args, records, json_rows, ["j_or_M_or_N", "radius", "witness_word", "undecided_count"])
    return 2 if any(json_row["undecided_count"] for json_row in json_rows) else 0


def cmd_probe(args) -> int:
    order = _nt_order(args)
    if args.kind == "totality":
        report = totality_probe(order, BallSpec(args.n, args.ball_length), args.depth_target)
        max_depth = report.records[-1][0] if report.records else -1
        covered = max_depth >= args.depth_target
        _emit(
            args,
            [
                {
                    "command": "probe",
                    "kind": "totality",
                    "spec": order.spec.name,
                    "ties": [str(w) for w in report.tie_words],
                    "max_depth": max_depth,
                    "depth_target": args.depth_target,
                    "covered": covered,
                }
            ],
        )
        return 2 if (report.tie_words or not covered) else 0
    lo, hi = _parse_range(args.range)
    if args.pattern is None and args.n < 5:
        raise MalformedInputError(f"the default --pattern 3/4 needs B_5 or more; give --pattern for B_{args.n}")
    pattern = _slash_pattern("3/4" if args.pattern is None else args.pattern, args.n)
    n_range = range(lo, hi + 1)
    rows = limit_probe_experiment(order, pattern, n_range, BallSpec(args.n, args.ball_length))
    settled = [{"stabilized": r.stable_sign is not None, "differs": r.differs} for r in rows]
    records = [
        {
            "probe": str(r.probe),
            "base_sign": r.base_sign,
            "signs": "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in r.signs),
            **flags,
        }
        for r, flags in zip(rows, settled)
    ]
    window = {
        "kind": "limit_probe",
        "name": order.spec.name,
        "conjugator_pattern": f"{-pattern[0]}^N {pattern[1]}",
        "N_range": list(n_range),
        "inconclusive_by_design": True,
    }
    _emit(args, records, [{**window, **_fields(r), **flags} for r, flags in zip(rows, settled)])
    inconclusive = hi == lo or not any(flags["stabilized"] for flags in settled)
    return 2 if inconclusive else 0


def cmd_catalog(args) -> int:
    specs = catalog()
    if args.name:
        if args.name not in specs:
            raise MalformedInputError(f"unknown catalog entry {args.name!r}")
        sys.stdout.write(format_geodesic_spec(specs[args.name]))
        return 0
    records = [
        {
            "name": spec.name,
            "n": spec.n,
            "type": spec.type_tag,
            "depths": list(spec.separating_depths),
            "soul": list(spec.soul_generators),
        }
        for _, spec in sorted(specs.items())
    ]
    _emit(args, records)
    return 0


def cmd_calibrate(args) -> int:
    result = calibrate_conventions(args.n, args.ball_length)
    conv = result.convention
    _emit(
        args,
        [
            {
                "command": "calibrate",
                "word": str(result.word),
                "germ_order_reversed": conv.germ_order_reversed,
                "artin_mirrored": conv.artin_mirrored,
                "angle_flipped": conv.angle_flipped,
                "matches": len(result.matches),
            }
        ],
    )
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    if ":" not in text:
        raise MalformedInputError(f"range must look like lo:hi, got {text!r}")
    lo_text, hi_text = text.split(":", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise MalformedInputError(f"range bounds must be integers, got {text!r}") from None
    if hi < lo:
        raise MalformedInputError(f"empty range {text!r}")
    return lo, hi


def _slash_pattern(text: str, n: int) -> tuple[int, BraidWord]:
    """A --pattern s/<braid word>: u a braid word of B_n, read first, then s in 1..n-1."""
    s_text, slash, u_text = text.partition("/")
    try:
        if not slash:
            raise ValueError("no '/'")
        u = parse_braid(u_text, n)
        s = int(s_text)
        if not 1 <= s <= n - 1:
            raise ValueError(f"generator index {s} out of range for B_{n}")
        return s, u
    except ValueError as exc:
        raise MalformedInputError(f"--pattern must look like s/<braid word>, got {text!r} ({exc})") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built once per process: parse_args keeps no
    state between calls, and building it costs a few milliseconds a call."""
    parser = argparse.ArgumentParser(
        prog="braidorders",
        description="Exact sign oracles and experiments for braid group orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=True):
        p.add_argument("--n", type=int, required=True, help="strand count")
        if order:
            p.add_argument("--order", required=True, help="dehornoy | nt:<name-or-file> | conj:<order>:<braid> | ext:<order>:<soul-order>")
            p.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("sign", help="sign of a braid under an order")
    common(p)
    p.add_argument("braid")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("cmp", help="compare two braids under an order")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_cmp)

    p = sub.add_parser("agree", help="agreement radius of two orders on a ball")
    common(p)
    p.add_argument("--other", required=True)
    p.add_argument("--ball-length", type=int, default=4)
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("conrad", help="search a Conradian-failure witness")
    common(p)
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--ball-length", type=int, default=3)
    p.set_defaults(func=cmd_conrad)

    p = sub.add_parser("soul", help="soul generators of a catalog order")
    common(p)
    p.add_argument("--validate", action="store_true")
    p.set_defaults(func=cmd_soul)

    p = sub.add_parser("chain", help="convex chain report")
    common(p)
    p.add_argument("--ball-length", type=int, default=3)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("approx", help="convergence experiments")
    p.add_argument("kind", choices=("conjugates", "extensions"))
    common(p)
    p.add_argument("--range", default="1:8", help="lo:hi for j or M")
    p.add_argument("--ball-length", type=int, default=4)
    p.add_argument("--pattern", default=None, help="conjugator pattern s/<braid word>: sigma_s^-j u")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("probe", help="totality probe or limit probe")
    p.add_argument("--kind", choices=("totality", "limit"), default="totality")
    common(p)
    p.add_argument("--ball-length", type=int, default=4)
    p.add_argument("--depth-target", type=int, default=20)
    p.add_argument("--range", default="1:12", help="lo:hi for N (limit probe)")
    p.add_argument("--pattern", default=None, help="limit conjugator s/<braid word>: sigma_s^-N u (default 3/4, n >= 5)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("catalog", help="list catalog entries or dump one")
    p.add_argument("--name", default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("calibrate", help="re-run the convention calibration")
    common(p, order=False)
    p.add_argument("--ball-length", type=int, default=4)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # keep --help at 0, but usage errors are malformed input, not the
        # reserved "mathematically inconclusive" code
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: devnull takes the exit flush, which would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (
        MalformedInputError,
        CalibrationError,
        SoulValidationError,
        SearchFailureError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UndecidedComparisonError, StreamGrowthError, BudgetExceededError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
