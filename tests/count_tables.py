"""Count tables (`characterization.Records`) built by hand for the tests.

- `records_of`: a table from (test, {outcome string: count}, shots) rows.
- `exact_records`: a table whose counts, at EXACT_SHOTS, round given
  frequencies (exact to ~1e-7).
- `frequency_records`: a stand-in table with arbitrary real frequencies,
  the count of each outcome being frequency x shots, so that the estimators
  can be differentiated numerically.
- `rows_where`, `same_records`: a table's rows whose test passes a check,
  and whether two tables hold the same records.
"""
import numpy as np

from noisekit.characterization import Records

EXACT_SHOTS = 9_000_000  # large enough that rounded counts are exact to ~1e-7


def records_of(rows, dtype=np.int64) -> Records:
    counts = np.zeros((len(rows), 4), dtype)
    for i, (_, outcomes, _) in enumerate(rows):
        for key, n in outcomes.items():
            counts[i, int(key, 2)] = n
    return Records(tuple(row[0] for row in rows), counts,
                   np.array([row[2] for row in rows], np.int64))


def exact_records(*rows) -> Records:
    """A table of (test, {outcome string: frequency}) rows."""
    table = []
    for test, freqs in rows:
        counts = {k: round(v * EXACT_SHOTS) for k, v in freqs.items() if v > 0}
        first = next(iter(counts))
        counts[first] += EXACT_SHOTS - sum(counts.values())
        table.append((test, counts, EXACT_SHOTS))
    return records_of(table)


def frequency_records(*rows) -> Records:
    """A table of (test, {outcome string: frequency}, shots) rows."""
    return records_of([(test, {k: f * shots for k, f in freqs.items()}, shots)
                       for test, freqs, shots in rows], dtype=float)


def rows_where(records: Records, keep) -> Records:
    rows = [i for i, test in enumerate(records.tests) if keep(test)]
    return Records(tuple(records.tests[i] for i in rows), records.counts[rows],
                   records.shots[rows])


def same_records(a: Records, b: Records) -> bool:
    return (a.tests == b.tests and np.array_equal(a.counts, b.counts)
            and np.array_equal(a.shots, b.shots))
