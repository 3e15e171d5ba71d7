"""Command-line frontend.

Exit codes: 0 success, 1 usage or input error, 2 resource limit. Element and
word arguments use the canonical text formats; all output is deterministic
for identical invocations.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bounds import birget_upper, new_upper
from .collapse import collapse_clusters
from .elements import Element
from .experiments import (
    counterexample_product,
    counterexample_y,
    estimate_constants,
    survey_bounds,
    survey_csv,
    verify_conjugation_identity,
)
from .generators import evaluate_word, format_word, parse_word
from .search import ResourceLimitError, ball_sizes, exact_word_length
from .words import synthesize_word


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


def _number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.6f}"


def build_parser() -> _Parser:
    parser = _Parser(prog="thompsonv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="print the reduced diagram")
    p.add_argument("element")

    p = sub.add_parser("mul", help="product: apply the first element, then the second")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("inv", help="inverse element")
    p.add_argument("element")

    p = sub.add_parser("eq", help="group equality of two diagrams")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("stats", help="caret count, cluster count, membership in F and T")
    p.add_argument("element")

    p = sub.add_parser("map", help="interval map pieces of the reduced diagram")
    p.add_argument("element")

    p = sub.add_parser("collapse", help="cluster collapse: y, z and the collapsed element")
    p.add_argument("element")

    p = sub.add_parser("length", help="exact word length within a search radius")
    p.add_argument("element")
    p.add_argument("--radius", type=int, default=7)
    p.add_argument("--budget-mb", type=int, default=None)

    p = sub.add_parser("ball", help="ball sizes per exact distance")
    p.add_argument("--radius", type=int, default=7)
    p.add_argument("--budget-mb", type=int, default=None)

    p = sub.add_parser("word", help="synthesize a word for an element, or evaluate a word")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--synthesize", metavar="ELEMENT")
    group.add_argument("--evaluate", metavar="WORD", help="the word, or - to read it from stdin")

    p = sub.add_parser("bounds", help="metric upper bounds for given caret/cluster counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=None)

    p = sub.add_parser("counterexample", help="the comb family y_n and the product P_n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("survey", help="CSV survey of random elements against both bounds")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--carets", type=int, default=6)
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-mb", type=int, default=None)

    p = sub.add_parser("constants", help="empirical metric constants over a full ball")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--budget-mb", type=int, default=None)

    return parser


def _run(args: argparse.Namespace) -> None:
    cmd = args.command
    if cmd == "reduce":
        print(Element.parse(args.element).reduce().text())
    elif cmd == "mul":
        print((Element.parse(args.a) * Element.parse(args.b)).text())
    elif cmd == "inv":
        print(Element.parse(args.element).inverse().text())
    elif cmd == "eq":
        print("true" if Element.parse(args.a).equals(Element.parse(args.b)) else "false")
    elif cmd == "stats":
        x = Element.parse(args.element)
        in_f, in_t = str(x.in_f()).lower(), str(x.in_t()).lower()
        print(f"N={x.caret_count()} B={x.cluster_count()} inF={in_f} inT={in_t}")
    elif cmd == "map":
        for src, tgt in Element.parse(args.element).interval_map().pieces:
            print(f"{src} -> {tgt}")
    elif cmd == "collapse":
        res = collapse_clusters(Element.parse(args.element))
        print(f"y: {res.y.text()}")
        print(f"z: {res.z.text()}")
        print(f"collapsed: {res.collapsed.text()}")
        print(f"y_diagram_carets: {res.y_diagram_carets}")
        print(f"z_diagram_carets: {res.z_diagram_carets}")
    elif cmd == "length":
        result = exact_word_length(
            Element.parse(args.element), args.radius, budget_mb=args.budget_mb
        )
        print(f"length={result}")
    elif cmd == "ball":
        for d, count in enumerate(ball_sizes(args.radius, budget_mb=args.budget_mb)):
            print(f"{d}: {count}")
    elif cmd == "word":
        if args.synthesize is not None:
            print(format_word(synthesize_word(Element.parse(args.synthesize))))
        else:
            word = sys.stdin.read() if args.evaluate == "-" else args.evaluate
            print(evaluate_word(parse_word(word)).text())
    elif cmd == "bounds":
        if args.b is not None:
            print(f"new_upper={_number(new_upper(args.n, args.b))}")
        print(f"birget_upper={_number(birget_upper(args.n))}")
    elif cmd == "counterexample":
        y = counterexample_y(args.n)
        print(f"y_n: {y.text()}")
        print(f"y_n_carets: {y.caret_count()}")
        print(f"y_n_clusters: {y.cluster_count()}")
        report = verify_conjugation_identity(args.n)
        print(f"conjugation_as_written: {str(report.as_written).lower()}")
        print(f"conjugation_mirrored: {str(report.mirrored).lower()}")
        product, word = counterexample_product(args.n)
        print(f"product: {product.text()}")
        print(f"product_carets: {product.caret_count()}")
        print(f"product_clusters: {product.cluster_count()}")
        print(f"witness_word_length: {len(word)}")
        print(f"witness_word: {format_word(word)}")
    elif cmd == "survey":  # a refusal comes before the header: survey_bounds draws lazily
        records = survey_bounds(args.count, args.carets, args.radius, args.seed, args.budget_mb)
        survey_csv(records, sys.stdout)
    else:  # "constants"; argparse admits only the subcommands above
        print(estimate_constants(args.radius, budget_mb=args.budget_mb))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _run(args)
        sys.stdout.flush()  # a reader that closed the pipe is met here, inside the try
    except BrokenPipeError:
        # as in Python's `signal` docs: the flush at exit then writes to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ResourceLimitError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
