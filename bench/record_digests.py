"""Record the digests of every output the catalog and cli workloads can draw.

Run from the repository root at the commit whose outputs are the
reference (the seed of the benchmark):

    python3 bench/record_digests.py

It writes bench/digests.json.  Component reports are not recorded
(they are checked against the catalog itself), nor are the labelled
known failures (a later success is checked by chi instead).  Any other
call that fails here aborts the recording.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import oracles as O
from workloads import (CATALOG_CLASSES, RECIPE_HI, RECIPE_KNOWN_FAILURES,
                       RECIPE_LO, SPLICE_RANGES, Catalog, Op, cli_domain, recipe_records,
                       ses_family, write_cli_files)
from run import load_package


def catalog_ops():
    for cls in CATALOG_CLASSES:
        yield Op("rao_pairs", cls)
        yield Op("realizability_gap", cls)
    yield Op("check_slope_examples", ())
    for index, (lo, hi) in itertools.product(range(len(ses_family())), SPLICE_RANGES):
        yield Op("splice_ses", (index, lo, hi))
        yield Op("splice_bounds", (index, lo, hi))
    for record, lo, hi in itertools.product(recipe_records(), RECIPE_LO, RECIPE_HI):
        if not (hi >= 1 and record["name"] in RECIPE_KNOWN_FAILURES):
            yield Op("recipe_table", (record["name"], lo, hi))


def main() -> int:
    lib = load_package()
    workload = Catalog()
    workload.bind(lib, lib.catalog_load())
    digests = {}
    for op in catalog_ops():
        digests[op.key()] = O.digest(workload.canonical(op, workload.call(op)))
    write_cli_files()
    cli = importlib.import_module("sheafspectra.cli")
    for entries in cli_domain().values():
        for argv, known, _ in entries:
            if known is not None or argv[0] == "report":
                continue
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
            if code:
                raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue()}")
            digests["cli " + " ".join(argv)] = O.digest(out.getvalue())
    with open(O.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {O.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
