"""Table 1: species / pattern / ensemble counts on the synthetic corpus.

Regenerates the content of the paper's Table 1 (per-species pattern and
ensemble counts) at BENCH scale and prints the paper-vs-measured table.
The benchmark timing covers the table construction over the pre-extracted
data; the corpus extraction itself is timed by the end-to-end benchmark
(``benchmarks/e2e``).
"""

from __future__ import annotations

from repro.experiments.table1 import build_table1, format_table1
from repro.synth import SPECIES_CODES


def test_table1_species_counts(benchmark, bench_data):
    rows = benchmark(build_table1, bench_data)
    print("\n" + format_table1(rows))

    assert len(rows) == 10
    assert {row.code for row in rows} == set(SPECIES_CODES)
    represented = [row for row in rows if row.measured_ensembles > 0]
    # Every species yields ensembles at bench scale except, occasionally, the
    # quietest one or two; the table must never collapse to a few species.
    assert len(represented) >= 8
    for row in represented:
        assert row.measured_patterns >= row.measured_ensembles
    total_ensembles = sum(row.measured_ensembles for row in rows)
    total_patterns = sum(row.measured_patterns for row in rows)
    assert total_ensembles >= 30
    assert total_patterns >= 5 * total_ensembles / 2
