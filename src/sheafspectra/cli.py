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


def _emit(args, payload, render) -> int:
    # the one printer: builds only the one of payload() and render() it prints
    from .spectrum import report_json

    print(report_json(payload()) if args.format == "json" else render())
    return 0


def _cmd_chi(args) -> int:
    cc = ChernClasses(args.e, args.c2, args.c3)
    print(euler_characteristic(cc, args.twist))
    return 0


def _cmd_enumerate(args) -> int:
    from .spectrum import _markdown, _spectrum_str, enumerate_spectra

    cc = ChernClasses(args.e, args.c2, args.c3)
    found = enumerate_spectra(cc, args.seh)
    return _emit(args, lambda: {
        "moduli": list(cc.as_tuple()),
        "spectra": [{"values": list(sw.values), "s": sw.s} for sw in found],
    }, lambda: _markdown(("Spectrum", "s"), ((_spectrum_str(sw.values), sw.s) for sw in found)))


def _cmd_table(args) -> int:
    from .cohomology import table_from_spectrum
    from .spectrum import SpectrumWithS

    sw = SpectrumWithS(args.spectrum, args.s)
    table = table_from_spectrum(sw, splitting_type_from_e(args.e), args.range)
    return _emit(args, table.to_json_dict, table.to_markdown)


def _cmd_invert_table(args) -> int:
    import json

    from .cohomology import CohomologyTable, spectrum_from_table
    from .spectrum import _spectrum_str

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
    return _emit(args, lambda: {"values": list(sw.values), "s": sw.s},
                 lambda: f"spectrum {_spectrum_str(sw.values)} with s={sw.s}")


def _cmd_splice(args) -> int:
    import json

    from .sheafcalc import recipe_table

    with open(args.spec, "r", encoding="utf-8") as handle:
        node = json.load(handle)
    table = recipe_table(node, args.range)
    return _emit(args, table.to_json_dict, table.to_markdown)


def _cmd_report(args) -> int:
    from .workbench import catalog_load, component_report, report_markdown

    report = component_report(catalog_load(args.catalog), args.moduli)
    return _emit(args, lambda: report, lambda: report_markdown(report))


def _cmd_rao_pairs(args) -> int:
    from .workbench import catalog_load, rao_pairs

    pairs = rao_pairs(catalog_load(args.catalog), args.moduli)
    return _emit(args, lambda: {"moduli": list(args.moduli.as_tuple()),
                                "pairs": [list(p) for p in pairs]},
                 lambda: "\n".join(f"{a} & {b}" for a, b in pairs) or "no shared spectra")


def _cmd_gap(args) -> int:
    from .spectrum import _spectrum_str
    from .workbench import catalog_load, realizability_gap

    missing, extra = realizability_gap(catalog_load(args.catalog), args.moduli, args.seh)
    blocks = (("missing (no known component):", missing),
              ("extra candidates (beyond the documented list):", extra))
    return _emit(args, lambda: {
        "moduli": list(args.moduli.as_tuple()),
        "missing": [list(v) for v in missing],
        "extra_candidates": [list(v) for v in extra],
    }, lambda: "\n".join(line for head, spectra in blocks for line in [
        head, *([f"  {_spectrum_str(v)}" for v in spectra] or ["  none"])]))


def _cmd_check_examples(args) -> int:
    from .workbench import check_slope_examples, slope_examples_markdown

    report = check_slope_examples()
    return _emit(args, lambda: report, lambda: slope_examples_markdown(report))


# Each row gives a subcommand its help text, its handler and its arguments as
# (flag, add_argument options) rows, in the order help prints them.  Handlers
# import the layers they run inside their bodies: a process runs without a
# bytecode cache, so it compiles every module it imports, and build_parser adds
# only the one subparser a subcommand process runs.
_FORMAT = (("--format", dict(choices=("md", "json"), default="md")),)
_CLASS = tuple((flag, dict(type=_int, required=True)) for flag in ("--e", "--c2", "--c3"))
_MODULI = (("--moduli", dict(type=_moduli, required=True, help="E,C2,C3, e.g. --moduli=-1,2,0")),
           ("--catalog", dict(default=None, help="catalog JSON file")))
_SEH = (("--seh", dict(type=_seh, default="unbounded",
                       help="chain-up threshold, an integer or 'unbounded'")),)

_COMMANDS = {
    "chi": ("Euler characteristic of a twist", _cmd_chi,
            (*_CLASS, ("--twist", dict(type=_int, default=0)))),
    "enumerate": ("all admissible spectra for a class", _cmd_enumerate,
                  (*_CLASS, *_SEH, *_FORMAT)),
    "table": ("cohomology table of a spectrum", _cmd_table, (
        ("--spectrum", dict(type=_values, required=True,
                            help="comma-separated values, e.g. --spectrum=-1,0")),
        ("--s", dict(type=_int, required=True)),
        ("--e", dict(type=_int, required=True)),
        ("--range", dict(type=_twist_range, default=(-4, -1),
                         help="twist range LO:HI, e.g. --range=-8:2")),
        *_FORMAT)),
    "invert-table": ("recover (spectrum, s) from a table", _cmd_invert_table, (
        ("file", dict(help="table JSON file")),
        ("--e", dict(type=_int, default=None,
                     help="first Chern class if the table has none attached")),
        *_FORMAT)),
    "splice": ("solve a sequence or recipe for its table", _cmd_splice, (
        ("--spec", dict(required=True, help="recipe JSON file")),
        ("--range", dict(type=_twist_range, default=(-8, 0))),
        *_FORMAT)),
    "report": ("component report for a moduli class", _cmd_report, (*_MODULI, *_FORMAT)),
    "rao-pairs": ("components sharing spectrum values", _cmd_rao_pairs, (*_MODULI, *_FORMAT)),
    "gap": ("enumerated spectra with no known component", _cmd_gap,
            (*_MODULI, *_SEH, *_FORMAT)),
    "check-examples": ("slope-semistable bound breakers", _cmd_check_examples, _FORMAT),
}


def build_parser(command=None) -> _Parser:
    """The root parser with every subcommand, or with only `command` if it names one."""
    parser = _Parser(prog="sheafspectra", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        text, _, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # _moduli may raise a class error
        args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
        if extra:  # the root's error, with the usage line that lists every subcommand
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        return _COMMANDS[args.command][1](args)
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
