"""Size-anonymity analysis of object-length datasets.

Pads every size in a dataset under a padding scheme, groups objects that
become indistinguishable by length, and reports how many stay unique,
each object's anonymity-set size, and the padding overhead paid for it.
profile is linear in the dataset: one pass pads and counts, and the
mean overhead is a float mean of the per-object ratios (an exact
fraction's denominator would grow with every distinct size).
"""

from __future__ import annotations

import csv
import statistics
from collections import Counter
from dataclasses import dataclass

from .padding import PadSpec


@dataclass
class SizeDataset:
    name: str
    sizes: list[int]

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("dataset is empty")
        for s in self.sizes:
            if s < 1:
                raise ValueError(f"sizes must be >= 1, got {s}")


@dataclass
class AnonymityReport:
    pad_name: str
    set_sizes: list[int]  # per object, aligned with the dataset
    unique_count: int
    mean_overhead: float  # mean of (padded - size) / size

    @property
    def total(self) -> int:
        return len(self.set_sizes)

    @property
    def unique_pct(self) -> float:
        return 100.0 * self.unique_count / self.total

    @property
    def mean_overhead_pct(self) -> float:
        return 100.0 * self.mean_overhead

    @property
    def median_set(self) -> float:
        return statistics.median(self.set_sizes)

    @property
    def max_set(self) -> int:
        return max(self.set_sizes)


def load_sizes(path: str, column: str | None = None) -> SizeDataset:
    """Read sizes from a file: one integer per line, or a named CSV column.

    Blank lines of a plain file are skipped.  Malformed input is rejected
    with the offending line number.
    """
    sizes: list[int] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        if column is None:
            lines = ((n, line.strip()) for n, line in enumerate(f, start=1))
            tokens = ((n, token) for n, token in lines if token)
        else:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise ValueError(f"{path}: no column named {column!r}")
            tokens = (
                (reader.line_num, (row.get(column) or "").strip()) for row in reader
            )
        for lineno, token in tokens:
            try:
                value = int(token)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not an integer: {token!r}")
            if value < 1:
                raise ValueError(f"{path}: line {lineno}: size must be >= 1")
            sizes.append(value)
    if not sizes:
        raise ValueError(f"{path}: no sizes found")
    return SizeDataset(name=path, sizes=sizes)


def profile(ds: SizeDataset, spec: PadSpec) -> AnonymityReport:
    """Group objects by padded size and measure anonymity and overhead."""
    padded = [spec.pad_len(s) for s in ds.sizes]
    groups = Counter(padded)
    set_sizes = [groups[p] for p in padded]
    return AnonymityReport(
        pad_name=str(spec),
        set_sizes=set_sizes,
        unique_count=sum(1 for c in set_sizes if c == 1),
        mean_overhead=statistics.fmean(
            (p - s) / s for p, s in zip(padded, ds.sizes)
        ),
    )


# The report's columns, in the table and in the CSV.
COLUMNS = ("pad", "unique_pct", "mean_overhead_pct", "median_set", "max_set")


def _row(r: AnonymityReport, decimals: int) -> list[str]:
    """One report's cells; the table prints 2 decimals, the CSV 4."""
    return [
        r.pad_name,
        f"{r.unique_pct:.{decimals}f}",
        f"{r.mean_overhead_pct:.{decimals}f}",
        f"{r.median_set:g}",
        str(r.max_set),
    ]


def render_table(reports: list[AnonymityReport]) -> str:
    rows = [COLUMNS, *(_row(r, 2) for r in reports)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(COLUMNS))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)


def write_csv(reports: list[AnonymityReport], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([COLUMNS, *(_row(r, 4) for r in reports)])
