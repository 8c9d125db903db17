"""Self-tests of the benchmark: seeded inputs, oracles, the speed gauge, span accounting.

Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

lib = run.load_package()


def first_rounds(workload, seed, count=3):
    return list(itertools.islice(workload.rounds(seed), count))


def bound(workload):
    workload.bind(lib, lib.catalog_load())
    return workload


def phase_of(workload, seed, seconds=0.0):
    return run.run_phase(workload, workload.rounds(seed), seconds, run.SpeedGauge.in_process())


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = W.WORKLOADS[name]
    assert first_rounds(make(), 7) == first_rounds(make(), 7)
    assert first_rounds(make(), 7) != first_rounds(make(), 8)


def test_enumerate_passes_have_distinct_classes_with_spectra_and_without():
    passes = [[op.args for op in ops] for ops in first_rounds(W.Enumerate(), 3)]
    for classes in passes:
        assert len(set(classes)) == len(classes) == 177
        assert sum(c2 == 7 for _, c2, _ in classes) * 10 > len(classes)
    counts = [O.count_spectra(*cls) for classes in passes for cls in classes]
    assert 0 in counts and max(counts) > 1000


def test_every_drawable_output_has_a_digest():
    digests = O.load_digests()
    catalog = W.Catalog()
    for ops in first_rounds(catalog, 1, 50):
        for op in ops:
            if op.kind != "component_report" and op.known is None:
                assert op.key() in digests
    for entries in W.cli_domain().values():
        for argv, known, _ in entries:
            if known is None and argv[0] != "report":
                assert "cli " + " ".join(argv) in digests


# ------------------------------------------------------------------ oracles

def test_counting_oracle_matches_pins_and_enumerator():
    for cls, count in O.PINNED_COUNTS.items():
        assert O.count_spectra(*cls) == count
    for e, m in itertools.product((-1, 0), range(1, 5)):
        for c3 in O.c3_window(e, m):
            found = lib.enumerate_spectra(lib.ChernClasses(e, m, c3))
            O.check_enumeration((e, m, c3), found)


def test_chi_matches_the_library():
    for e, c2, c3 in ((-1, 2, 0), (0, 3, 0), (-1, 5, 3), (0, 4, -6)):
        for t in range(-6, 4):
            assert O.chi(e, c2, c3, t) == lib.euler_characteristic(lib.ChernClasses(e, c2, c3), t)


def corrupted_enumerations(found):
    sw = lib.SpectrumWithS
    first = found[0]
    yield found[1:]                                            # one spectrum missing
    yield [sw(first.values, first.s + 1)] + found[1:]          # s off the c3 identity
    yield found[::-1]                                          # order broken
    yield [sw((-3, 0, 0), 3)] + found[1:]                      # chain-down broken


def test_enumerate_oracle_rejects_corruption():
    cls = (0, 3, 0)
    found = lib.enumerate_spectra(lib.ChernClasses(*cls))
    O.check_enumeration(cls, found)
    assert found[0] == ((-3, -2, -1), 6)
    for bad in corrupted_enumerations(found):
        with pytest.raises(O.CheckFailed):
            O.check_enumeration(cls, bad)


def test_roundtrip_oracle_rejects_corruption():
    workload = bound(W.Roundtrip())
    op = next(workload.rounds(1))[0]
    table, recovered, violations = workload.call(op)
    workload.check(op, (table, recovered, violations))
    values, s = recovered
    bad_table = lib.CohomologyTable(table.lo, table.hi, {
        t: (row if t != -1 else (row[0], row[1] + 1, row[2] + 1, row[3]))
        for t, row in ((t, table.row(t)) for t in range(table.lo, table.hi + 1))})
    for bad in ((table, lib.SpectrumWithS(values, s + 1), violations),
                (table, recovered, [(-1, 0, 1)]),
                (bad_table, recovered, violations)):
        with pytest.raises(O.CheckFailed):
            workload.check(op, bad)


def test_catalog_oracles_reject_corruption():
    workload = bound(W.Catalog())
    report = workload.call(W.Op("component_report", (0, 3, 0)))
    workload.check(W.Op("component_report", (0, 3, 0)), report)
    report["components"][0]["spectrum"] = [9, 9, 9]
    with pytest.raises(O.CheckFailed):
        workload.check(W.Op("component_report", (0, 3, 0)), report)

    op = W.Op("recipe_table", ("Ein", -8, 0))
    table = workload.call(op)
    workload.check(op, table)
    rows = {t: table.row(t) for t in range(table.lo, table.hi + 1)}
    rows[-1] = (rows[-1][0] + 1,) + rows[-1][1:]
    with pytest.raises(O.CheckFailed):
        workload.check(op, lib.CohomologyTable(table.lo, table.hi, rows))
    known = W.Op("recipe_table", ("Ein", -8, 0), "SequenceInfeasibleError")
    moduli = tuple(workload.recipes["Ein"]["moduli"])
    with pytest.raises(O.CheckFailed):
        O.check_chi_rows(moduli, rows)
    workload.check(known, table)  # a later success passes the chi check

    op = W.Op("splice_bounds", (0, -6, -1))
    bounds_ = workload.call(op)
    workload.check(op, bounds_)
    bounds_[-1] = (None, None, None, None)
    with pytest.raises(O.CheckFailed):
        workload.check(op, bounds_)


def test_cli_oracles_reject_corruption():
    W.write_cli_files()
    workload = bound(W.Cli(in_process=True))
    for entries in W.cli_domain().values():
        argv, known, moduli = entries[-1]
        op = W.Op("cli", (argv, moduli), known)
        stdout = workload.call(op)
        workload.check(op, stdout)
        corrupted = stdout.replace("1", "2", 1) if "1" in stdout else stdout + "0"
        with pytest.raises((O.CheckFailed, ValueError)):
            workload.check(op, corrupted)


def test_known_failure_is_labelled_and_a_corrupt_output_is_failed():
    class Corrupt(W.Roundtrip):
        def call(self, op):
            table, recovered, violations = super().call(op)
            return table, recovered, [(0, 0, 1)]

    phase = phase_of(bound(Corrupt()), 1)
    assert len(phase.failures) == phase.attempted >= run.MIN_OPS

    phase = phase_of(bound(W.Catalog()), 2, seconds=0.3)
    assert not phase.failures
    assert set(phase.known) == set(W.RECIPE_KNOWN_FAILURES.values())


# ------------------------------------------------------------------ timing

def test_speed_gauge_scales_by_the_samples_around_an_operation():
    gauge = run.SpeedGauge(lambda: None, 0.5, periodic=False)
    gauge.stamps = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    gauge.times = [9.0, 1.0, 1.0, 4.0, 1.0, 1.0, 9.0]
    # the sample taken during it, and two on each side: median 1.0
    assert gauge.scaled(2.0, 3.5, 4.5) == 1.0
    gauge.exponent = 0.5
    assert gauge.scaled(2.0, 3.5, 4.5) == 2.0 * 0.5 ** 0.5


def test_operations_are_not_charged_for_the_gauge_samples_they_contain():
    gauge = run.SpeedGauge.in_process()
    start = gauge.cpu_now()
    for _ in range(20):
        gauge.measure()
    assert gauge.cpu_now() - start < 0.2 * gauge.spent


# ------------------------------------------------------------------ spans

@pytest.mark.parametrize("make", [W.Roundtrip, W.Catalog, lambda: W.Cli(in_process=True)])
def test_layer_self_time_fits_in_traced_wall_time(make):
    W.write_cli_files()
    workload = bound(make())
    recorder = spans.Recorder()
    recorder.patch(lib)
    try:
        phase = phase_of(workload, 5)
    finally:
        recorder.restore()
    assert not phase.failures
    metrics = recorder.metrics()
    self_ms = sum(metrics[f"{layer}.self_ms"][0] for layer in spans.LAYERS)
    assert 0 < self_ms <= phase.busy * 1e3
    for layer in spans.LAYERS:
        assert metrics[f"{layer}.self_ms"][0] <= metrics[f"{layer}.busy_ms"][0] + 1e-9
    # restore puts every original function back
    assert lib.table_from_spectrum.__module__ == "sheafspectra.cohomology"
    assert not hasattr(lib.table_from_spectrum, "__wrapped__")
