"""The four seeded workloads: inputs, the call each operation makes, its check.

Each workload yields rounds of operations from its seed alone, without
importing ``sheafspectra``; a run executes whole rounds in a closed loop
with one client.  A round has a fixed composition (only the drawn
arguments and the order depend on the seed), so any run covers the same
mix and its percentiles are comparable across seeds.

An operation whose failure is known at the seed carries the label of
the error it raises there (``Op.known``).  If it raises that error it
counts towards ``error_rate`` as a known failure; if a later change
makes it succeed, its output is checked against chi of the recorded
class, since no digest exists for it.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles as O

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CATALOG_PATH = SRC / "sheafspectra" / "data" / "catalog.json"
WORK_DIR = BENCH_DIR / ".work"

GOLDEN = 0.6180339887498949

# the enumerate workload: every class of each c3 window for c2 below
# ENUMERATE_SAMPLED_C2, and ENUMERATE_SAMPLES evenly spaced classes of
# each window at that c2.  A pass is 177 distinct classes: 66 with
# c2 <= 4, 91 with c2 = 5 or 6 and 20 with c2 = 7.  op_p50_ms falls among
# c2 = 5 and 6 classes of about 7 ms, where neighbouring costs differ by
# at most 6 %, and op_p90_ms on the exponential end, among the c2 = 7
# classes and the dearest c2 = 6 ones.  At the seed one pass takes about
# 20 s on a 2-core host, longer than a run's seconds.
ENUMERATE_SAMPLED_C2 = 7
ENUMERATE_SAMPLES = 10

ROUNDTRIP_M = (4, 12, 24)
ROUNDTRIP_JSON_EVERY = 4  # one operation in four goes through JSON

CATALOG_CLASSES = ((-1, 2, 0), (0, 3, 0))
RECIPE_LO = range(-8, -2)
RECIPE_HI = range(-1, 3)
# recipes that fail at the seed once hi >= 1 (ROADMAP item 2 defects)
RECIPE_KNOWN_FAILURES = {
    "Instanton": "SequenceInfeasibleError",
    "T(-1,2,2,1)": "RangeInsufficientError",
}
SPLICE_PER_ROUND = 4
SPLICE_RANGES = ((-6, -1), (-6, 1), (-4, -1), (-4, 1))
SPLICE_DEGREES = (-2, -1, 0)

CLI_SPECTRA = ((-1, 0), (-1, -1), (-2, -1), (0, 0, 0), (-1, 0, 1), (-2, -1, 0))
CLI_S = (0, 2)
CLI_TABLE_RANGES = ("-4:-1", "-6:0", "-8:2")
CLI_TWISTS = (-2, 0, 2)
CLI_FORMATS = ("md", "json")


class Op:
    """One operation: a kind, its arguments, and the seed's known failure."""

    __slots__ = ("kind", "args", "known")

    def __init__(self, kind: str, args: tuple, known: str | None = None):
        self.kind = kind
        self.args = args
        self.known = known

    def key(self) -> str:
        return f"{self.kind} {json.dumps(self.args, separators=(',', ':'))}"

    def __eq__(self, other):
        return (self.kind, self.args, self.known) == (other.kind, other.args, other.known)

    def __repr__(self):
        return f"Op({self.key()}, known={self.known})"


def catalog_records() -> list:
    with open(CATALOG_PATH, encoding="utf-8") as handle:
        return json.load(handle)["components"]


def recipe_records() -> list:
    return [r for r in catalog_records() if r.get("construction") is not None]


class Workload:
    """Defaults shared by the workloads."""

    in_process = True  # operations run in this process, not in a child
    whole_pass = False  # a run is exactly one round

    def bind(self, lib, catalog) -> None:
        self.lib = lib

    def failure_label(self, error: BaseException, op: "Op") -> str:
        """The error class a failed call is counted under."""
        return type(error).__name__


# ------------------------------------------------------------------ enumerate

class Enumerate(Workload):
    """One enumerate_spectra per operation over distinct classes.

    A pass has every class with c2 < ENUMERATE_SAMPLED_C2 and a
    systematic sample of each c3 window at that c2, evenly spaced from
    an offset that moves by the golden ratio between passes.  No class
    repeats within a pass.  A run is exactly the first pass, whatever
    its length, and the seed only orders it: cost across one window
    spans two orders of magnitude, so seeded classes, or a faster
    program reaching a second pass, would change the mix being timed.
    A traced run times the second pass in its traced half.
    """

    name = "enumerate"
    whole_pass = True

    def rounds(self, seed: int):
        rng = random.Random(f"enumerate:{seed}")
        for p in itertools.count():
            ops = [Op("enumerate", (e, m, c3))
                   for m in range(1, ENUMERATE_SAMPLED_C2) for e in (-1, 0)
                   for c3 in O.c3_window(e, m)]
            u = (0.5 + p * GOLDEN) % 1.0
            m, k = ENUMERATE_SAMPLED_C2, ENUMERATE_SAMPLES
            for e in (-1, 0):
                window = O.c3_window(e, m)
                ops += [Op("enumerate", (e, m, window[int((i + u) * len(window) / k)]))
                        for i in range(k)]
            rng.shuffle(ops)
            yield ops

    def call(self, op: Op):
        return self.lib.enumerate_spectra(self.lib.ChernClasses(*op.args))

    def check(self, op: Op, result) -> None:
        O.check_enumeration(op.args, result)


# ------------------------------------------------------------------ roundtrip

class Roundtrip(Workload):
    """Table generation, optional JSON pass, inversion and chi per operation."""

    name = "roundtrip"

    def rounds(self, seed: int):
        rng = random.Random(f"roundtrip:{seed}")
        while True:
            plan = [(m, j == 0) for m in ROUNDTRIP_M for j in range(ROUNDTRIP_JSON_EVERY)]
            rng.shuffle(plan)
            ops = []
            for m, via_json in plan:
                e = rng.choice((-1, 0))
                depth = rng.randint(1, m)
                values = tuple(sorted(
                    list(range(-depth, 0)) + [rng.randint(-depth, 2) for _ in range(m - depth)]
                ))
                s = rng.randint(0, 12)
                lo = min(-m - 6, -max(values) - 3)
                hi = max(2, -min(values) - 1)
                ops.append(Op("roundtrip", (e, values, s, lo, hi, via_json)))
            yield ops

    def call(self, op: Op):
        lib = self.lib
        e, values, s, lo, hi, via_json = op.args
        st = lib.splitting_type_from_e(e)
        table = lib.table_from_spectrum(lib.SpectrumWithS(values, s), st, (lo, hi))
        if via_json:
            table = lib.CohomologyTable.from_json(table.to_json())
        recovered = lib.spectrum_from_table(table, st)
        return table, recovered, lib.chi_consistency(table, table.cc)

    def check(self, op: Op, result) -> None:
        O.check_roundtrip(op.args[:5], *result)


# ------------------------------------------------------------------ catalog

def _h0_h3(d: int) -> tuple[int, int]:
    # h0 and h3 of O(d) on P^3
    chi = (d + 1) * (d + 2) * (d + 3) // 6
    return (chi if d >= 0 else 0, -chi if d <= -4 else 0)


def _feasible(unknown: str, left, middle, right) -> bool:
    # forced maps of the twelve-term sequence over the widest splice range
    lo = min(r[0] for r in SPLICE_RANGES)
    hi = max(r[1] for r in SPLICE_RANGES)
    for t in range(lo, hi + 1):
        if unknown == "left" and sum(_h0_h3(a + t)[1] for a in right) > sum(
                _h0_h3(a + t)[1] for a in middle):
            return False
        if unknown == "right" and sum(_h0_h3(a + t)[0] for a in left) > sum(
                _h0_h3(a + t)[0] for a in middle):
            return False
    return True


def ses_family() -> list:
    """Short exact sequences of line-bundle sums for splice_bounds.

    0 -> L -> M -> R -> 0 with L one line bundle, R one or two, M their
    combined rank, degrees in SPLICE_DEGREES, and one slot unknown.
    Caps on the free ranks come only from h0 or h3 of line bundles at
    twists >= -6, so the rank product stays below 40 per twist.
    Sequences that the forced maps make infeasible are left out.
    """
    def sums(rank):
        return list(itertools.combinations_with_replacement(SPLICE_DEGREES, rank))

    family = []
    for r_rank in (1, 2):
        for left, middle, right in itertools.product(sums(1), sums(1 + r_rank), sums(r_rank)):
            for unknown in ("left", "middle", "right"):
                slots = {"left": left, "middle": middle, "right": right, unknown: None}
                spec = (unknown, slots["left"], slots["middle"], slots["right"])
                if spec not in family and _feasible(unknown, left, middle, right):
                    family.append(spec)
    return family


class Catalog(Workload):
    """A seeded mix of library calls on the bundled catalog.

    A round has both component reports, rao_pairs and realizability
    gaps, one check_slope_examples, SPLICE_PER_ROUND seeded sequences
    each solved by splice_ses and bounded by splice_bounds, and one
    recipe_table call per catalog recipe.
    """

    name = "catalog"

    def rounds(self, seed: int):
        rng = random.Random(f"catalog:{seed}")
        names = [r["name"] for r in recipe_records()]
        n_specs = len(ses_family())
        while True:
            ops = []
            for cls in CATALOG_CLASSES:
                ops += [Op("component_report", cls), Op("rao_pairs", cls),
                        Op("realizability_gap", cls)]
            ops.append(Op("check_slope_examples", ()))
            for _ in range(SPLICE_PER_ROUND):
                args = (rng.randrange(n_specs), *rng.choice(SPLICE_RANGES))
                ops += [Op("splice_ses", args), Op("splice_bounds", args)]
            for name in names:
                lo, hi = rng.choice(RECIPE_LO), rng.choice(RECIPE_HI)
                known = RECIPE_KNOWN_FAILURES.get(name) if hi >= 1 else None
                ops.append(Op("recipe_table", (name, lo, hi), known))
            rng.shuffle(ops)
            yield ops

    def bind(self, lib, catalog) -> None:
        self.lib = lib
        self.catalog = catalog
        self.records = catalog_records()
        self.recipes = {r["name"]: r for r in recipe_records()}
        self.specs = ses_family()

    def _spec(self, index: int):
        lib = self.lib
        slots = dict(zip(("left", "middle", "right"), self.specs[index][1:]))
        return lib.ShortExactSequenceSpec(**{
            slot: None if degrees is None else lib.DirectSum(lib.LineBundle(a) for a in degrees)
            for slot, degrees in slots.items()
        })

    def call(self, op: Op):
        lib, args = self.lib, op.args
        if op.kind == "component_report":
            return lib.component_report(self.catalog, lib.ChernClasses(*args))
        if op.kind == "rao_pairs":
            return lib.rao_pairs(self.catalog, lib.ChernClasses(*args))
        if op.kind == "realizability_gap":
            return lib.realizability_gap(self.catalog, lib.ChernClasses(*args))
        if op.kind == "check_slope_examples":
            return lib.check_slope_examples()
        if op.kind == "splice_ses":
            return lib.splice_ses(self._spec(args[0]), args[1:])
        if op.kind == "splice_bounds":
            return lib.splice_bounds(self._spec(args[0]), args[1:])
        name, lo, hi = args
        return lib.recipe_table(self.recipes[name]["construction"], (lo, hi))

    def canonical(self, op: Op, result):
        """JSON-able form of a result, the input of its digest."""
        if op.kind == "rao_pairs":
            return [list(pair) for pair in result]
        if op.kind == "realizability_gap":
            return [[list(v) for v in part] for part in result]
        if op.kind == "splice_bounds":
            return [[t, [None if b is None else list(b) for b in row]]
                    for t, row in sorted(result.items())]
        if op.kind in ("splice_ses", "recipe_table"):
            return O.table_doc(result)
        return result

    def check(self, op: Op, result) -> None:
        if op.kind == "component_report":
            O.check_report(result, self.records, op.args)
        elif op.known is not None:
            record = self.recipes[op.args[0]]
            O.check_chi_rows(tuple(record["moduli"]),
                             {t: result.row(t) for t in range(result.lo, result.hi + 1)})
        else:
            O.check_digest(op.key(), self.canonical(op, result))


# ------------------------------------------------------------------ cli

class CliExit(Exception):
    """A CLI call that exited with a nonzero code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()}")
        self.code = code


def _recipe_path(index: int) -> str:
    return f"bench/.work/recipe-{index}.json"


def _table_path(e: int, values: tuple, s: int) -> str:
    return f"bench/.work/table_{e}_{'_'.join(map(str, values))}_{s}.json"


def _table_file(e: int, values: tuple, s: int) -> dict:
    lo = min(-len(values) - 6, -max(values) - 3)
    hi = max(2, -min(values) - 1)
    rows = O.window_rows(e, values, s, lo, hi)
    return {
        "range": [lo, hi],
        "rows": {str(t): list(row) for t, row in rows.items()},
        "cc": [e, len(values), O.c3_of(e, values, s)],
    }


def cli_domain() -> dict:
    """Every argv the cli workload can draw, grouped by subcommand.

    Entries are (argv, known, moduli): known labels a failure at the
    seed; moduli is the recipe's recorded class for those.
    """
    classes = [(e, m, c3) for e in (-1, 0) for m in range(1, 5) for c3 in O.c3_window(e, m)]
    fmt = [("--format", f) for f in CLI_FORMATS]
    domain = {
        "chi": [(("chi", "--e", str(e), "--c2", str(m), "--c3", str(c3), "--twist", str(t)),
                 None, None) for e, m, c3 in classes for t in CLI_TWISTS],
        "enumerate": [(("enumerate", "--e", str(e), "--c2", str(m), "--c3", str(c3), *f),
                       None, None) for e, m, c3 in classes for f in fmt],
        "table": [(("table", f"--spectrum={','.join(map(str, v))}", "--s", str(s), "--e", str(e),
                    f"--range={rng}", *f), None, None)
                  for v in CLI_SPECTRA for s in CLI_S for e in (-1, 0)
                  for rng in CLI_TABLE_RANGES for f in fmt],
        "invert-table": [(("invert-table", _table_path(e, v, s), *f), None, None)
                         for v in CLI_SPECTRA for s in CLI_S for e in (-1, 0) for f in fmt],
        "splice": [],
        "report": [], "rao-pairs": [], "gap": [],
        "check-examples": [(("check-examples", *f), None, None) for f in fmt],
    }
    for index, record in enumerate(recipe_records()):
        for lo, hi, f in itertools.product(RECIPE_LO, RECIPE_HI, fmt):
            known = RECIPE_KNOWN_FAILURES.get(record["name"]) if hi >= 1 else None
            domain["splice"].append((("splice", "--spec", _recipe_path(index),
                                      f"--range={lo}:{hi}", *f),
                                     known, tuple(record["moduli"])))
    for command in ("report", "rao-pairs", "gap"):
        for cls, f in itertools.product(CATALOG_CLASSES, fmt):
            domain[command].append(((command, f"--moduli={','.join(map(str, cls))}", *f),
                                    None, None))
    return domain


def write_cli_files() -> None:
    """Recipe and table files the cli arguments name, under bench/.work."""
    WORK_DIR.mkdir(exist_ok=True)
    for index, record in enumerate(recipe_records()):
        (ROOT / _recipe_path(index)).write_text(json.dumps(record["construction"]))
    for v, s, e in itertools.product(CLI_SPECTRA, CLI_S, (-1, 0)):
        (ROOT / _table_path(e, v, s)).write_text(json.dumps(_table_file(e, v, s)))


def _parse_markdown(text: str) -> list:
    # cells of each body row of a markdown table
    lines = [line for line in text.splitlines() if line.startswith("|")]
    return [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]


def _table_rows(stdout: str, fmt: str) -> dict:
    if fmt == "json":
        doc = json.loads(stdout)
        return {int(t): tuple(row) for t, row in doc["rows"].items()}
    return {int(cells[0]): tuple(None if c == "" else int(c) for c in cells[1:])
            for cells in _parse_markdown(stdout)}


def _report_doc(stdout: str, fmt: str, cls: tuple) -> dict:
    if fmt == "json":
        return json.loads(stdout)
    rows = []
    for name, dim, spec, s, level, verified in _parse_markdown(stdout):
        rows.append({"name": name, "dimension": int(dim),
                     "spectrum": [int(k) for k in spec.strip("()").split(",")],
                     "s": int(s), "level": level, "verified": verified == "yes"})
    return {"moduli": list(cls), "components": rows}


class Cli(Workload):
    """A seeded argv mix over all 9 subcommands, one call per operation.

    Each call is a fresh ``python -m sheafspectra`` process; in traced
    runs the same argv list is replayed in process through cli.main.
    """

    name = "cli"

    def __init__(self, in_process: bool = False):
        self.in_process = in_process

    def rounds(self, seed: int):
        rng = random.Random(f"cli:{seed}")
        domain = cli_domain()
        while True:
            ops = [Op("cli", (argv, moduli), known)
                   for argv, known, moduli in (rng.choice(domain[c]) for c in domain)]
            rng.shuffle(ops)
            yield ops

    def bind(self, lib, catalog) -> None:
        self.cli = importlib.import_module("sheafspectra.cli")
        self.records = catalog_records()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def call(self, op: Op) -> str:
        argv = list(op.args[0])
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "sheafspectra", *argv], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True, check=False)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code:
            raise CliExit(code, stderr)
        return stdout

    def check(self, op: Op, stdout: str) -> None:
        argv, moduli = op.args
        fmt = argv[-1]
        if argv[0] == "report":
            cls = tuple(int(x) for x in argv[1].split("=")[1].split(","))
            O.check_report(_report_doc(stdout, fmt, cls), self.records, cls)
        elif op.known is not None:
            O.check_chi_rows(moduli, _table_rows(stdout, fmt))
        else:
            O.check_digest("cli " + " ".join(argv), stdout)

    def failure_label(self, error: BaseException, op: Op) -> str:
        # the process hides the error class; exit 2 on a labelled argv is it
        if isinstance(error, CliExit) and error.code == 2 and op.known is not None:
            return op.known
        return str(error)


WORKLOADS = {"enumerate": Enumerate, "roundtrip": Roundtrip, "catalog": Catalog, "cli": Cli}
