"""Command-line interface.

Exit codes follow one convention everywhere: 0 on success, 1 on
malformed input (bad flags, unreadable files, inadmissible invariants),
2 when a computation runs but fails a verification or consistency
constraint (insufficient table range, inconsistent table, infeasible
sequence, catalog verification mismatch).

Values that start with a dash need the = form, e.g. --spectrum=-1,0
or --range=-8:2; bare negative integers such as --e -1 parse fine.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import VERIFICATION_ERRORS, SheafSpectraError
from .invariants import ChernClasses, euler_characteristic, splitting_type_from_e

# Each handler imports the layers it uses, so a process compiles only those.

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int(text: str) -> int:
    # only the form str() prints: no "+", "-0", spaces, underscores or leading zeros
    try:
        if text == str(int(text)):
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _moduli(text: str) -> ChernClasses:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"moduli must be E,C2,C3 with three entries, got {text!r}"
        )
    return ChernClasses(*map(_int, parts))


def _twist_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"range must be LO:HI, got {text!r}")
    return _int(lo), _int(hi)


def _values(text: str) -> tuple[int, ...]:
    return tuple(map(_int, text.split(",")))


def _seh(text: str):
    from .spectrum import UNBOUNDED, ChainUpParam

    if text == "unbounded":
        return UNBOUNDED
    try:
        return ChainUpParam(_int(text))
    except ValueError as exc:  # argparse would print only the converter's name
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(args, payload, markdown: str) -> int:
    from .cohomology import report_json

    print(report_json(payload) if args.format == "json" else markdown)
    return 0


def _cmd_chi(args) -> int:
    cc = ChernClasses(args.e, args.c2, args.c3)
    print(euler_characteristic(cc, args.twist))
    return 0


def _cmd_enumerate(args) -> int:
    from .cohomology import _markdown, _spectrum_str
    from .spectrum import enumerate_spectra

    cc = ChernClasses(args.e, args.c2, args.c3)
    found = enumerate_spectra(cc, args.seh)
    payload = {
        "moduli": list(cc.as_tuple()),
        "spectra": [{"values": list(sw.values), "s": sw.s} for sw in found],
    }
    rows = ((_spectrum_str(sw.values), sw.s) for sw in found)
    return _emit(args, payload, _markdown(("Spectrum", "s"), rows))


def _cmd_table(args) -> int:
    from .cohomology import table_from_spectrum
    from .spectrum import SpectrumWithS

    sw = SpectrumWithS(args.spectrum, args.s)
    table = table_from_spectrum(sw, splitting_type_from_e(args.e), args.range)
    return _emit(args, table.to_json_dict(), table.to_markdown())


def _cmd_invert_table(args) -> int:
    import json

    from .cohomology import CohomologyTable, _spectrum_str, spectrum_from_table

    with open(args.file, "r", encoding="utf-8") as handle:
        table = CohomologyTable.from_json_dict(json.load(handle))
    e = args.e
    if table.cc is not None:
        if e not in (None, table.cc.e):
            raise ValueError(f"--e {e} contradicts e = {table.cc.e} of the table's classes")
        e = table.cc.e
    elif e is None:
        raise ValueError("supply --e or a table with attached Chern classes")
    sw = spectrum_from_table(table, splitting_type_from_e(e))
    payload = {"values": list(sw.values), "s": sw.s}
    return _emit(args, payload, f"spectrum {_spectrum_str(sw.values)} with s={sw.s}")


def _cmd_splice(args) -> int:
    import json

    from .sheafcalc import recipe_table

    with open(args.spec, "r", encoding="utf-8") as handle:
        node = json.load(handle)
    table = recipe_table(node, args.range)
    return _emit(args, table.to_json_dict(), table.to_markdown())


def _cmd_report(args) -> int:
    from .workbench import catalog_load, component_report, report_markdown

    report = component_report(catalog_load(args.catalog), args.moduli)
    return _emit(args, report, report_markdown(report))


def _cmd_rao_pairs(args) -> int:
    from .workbench import catalog_load, rao_pairs

    pairs = rao_pairs(catalog_load(args.catalog), args.moduli)
    payload = {"moduli": list(args.moduli.as_tuple()), "pairs": [list(p) for p in pairs]}
    md = "\n".join(f"{a} & {b}" for a, b in pairs) or "no shared spectra"
    return _emit(args, payload, md)


def _cmd_gap(args) -> int:
    from .cohomology import _spectrum_str
    from .workbench import catalog_load, realizability_gap

    missing, extra = realizability_gap(catalog_load(args.catalog), args.moduli, args.seh)
    payload = {
        "moduli": list(args.moduli.as_tuple()),
        "missing": [list(v) for v in missing],
        "extra_candidates": [list(v) for v in extra],
    }
    lines = ["missing (no known component):"]
    lines += [f"  {_spectrum_str(v)}" for v in missing] or ["  none"]
    lines.append("extra candidates (beyond the documented list):")
    lines += [f"  {_spectrum_str(v)}" for v in extra] or ["  none"]
    return _emit(args, payload, "\n".join(lines))


def _cmd_check_examples(args) -> int:
    from .workbench import check_slope_examples, slope_examples_markdown

    report = check_slope_examples()
    return _emit(args, report, slope_examples_markdown(report))


def build_parser() -> _Parser:
    parser = _Parser(prog="sheafspectra", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def fmt(p):
        p.add_argument("--format", choices=("md", "json"), default="md")

    def chern(p):
        for flag in ("--e", "--c2", "--c3"):
            p.add_argument(flag, type=_int, required=True)

    def moduli(p):
        p.add_argument("--moduli", type=_moduli, required=True,
                       help="E,C2,C3, e.g. --moduli=-1,2,0")
        p.add_argument("--catalog", default=None, help="catalog JSON file")

    def seh(p):
        p.add_argument("--seh", type=_seh, default="unbounded",
                       help="chain-up threshold, an integer or 'unbounded'")

    p = sub.add_parser("chi", help="Euler characteristic of a twist")
    chern(p)
    p.add_argument("--twist", type=_int, default=0)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("enumerate", help="all admissible spectra for a class")
    chern(p)
    seh(p)
    fmt(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="cohomology table of a spectrum")
    p.add_argument("--spectrum", type=_values, required=True,
                   help="comma-separated values, e.g. --spectrum=-1,0")
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--e", type=_int, required=True)
    p.add_argument("--range", type=_twist_range, default=(-4, -1),
                   help="twist range LO:HI, e.g. --range=-8:2")
    fmt(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("invert-table", help="recover (spectrum, s) from a table")
    p.add_argument("file", help="table JSON file")
    p.add_argument("--e", type=_int, default=None,
                   help="first Chern class if the table has none attached")
    fmt(p)
    p.set_defaults(func=_cmd_invert_table)

    p = sub.add_parser("splice", help="solve a sequence or recipe for its table")
    p.add_argument("--spec", required=True, help="recipe JSON file")
    p.add_argument("--range", type=_twist_range, default=(-8, 0))
    fmt(p)
    p.set_defaults(func=_cmd_splice)

    p = sub.add_parser("report", help="component report for a moduli class")
    moduli(p)
    fmt(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("rao-pairs", help="components sharing spectrum values")
    moduli(p)
    fmt(p)
    p.set_defaults(func=_cmd_rao_pairs)

    p = sub.add_parser("gap", help="enumerated spectra with no known component")
    moduli(p)
    seh(p)
    fmt(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("check-examples", help="slope-semistable bound breakers")
    fmt(p)
    p.set_defaults(func=_cmd_check_examples)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # _moduli may raise a class error
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except VERIFICATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SheafSpectraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
