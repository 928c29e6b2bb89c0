import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from helpers import log_uniform_sizes
from purb.analyzer import (
    SizeDataset,
    load_sizes,
    profile,
    render_table,
    write_csv,
)
from purb.padding import PadSpec


def grouping_oracle(sizes, pad_fn):
    """Independent regrouping: count by padded value computed one by one."""
    padded = list(map(pad_fn, sizes))
    counts = Counter(padded)
    per_object = [counts[p] for p in padded]
    return per_object, sum(1 for c in per_object if c == 1)


class TestLoadSizes:
    def test_one_per_line(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1\n2\n3\n")
        assert load_sizes(str(path)).sizes == [1, 2, 3]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("5\n\n6\n")
        assert load_sizes(str(path)).sizes == [5, 6]

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1\nabc\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_sizes(str(path))

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1\n0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_sizes(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no sizes"):
            load_sizes(str(path))

    def test_csv_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("name,size\nfoo,100\nbar,200\n")
        assert load_sizes(str(path), column="size").sizes == [100, 200]

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("name,size\nfoo,100\n")
        with pytest.raises(ValueError, match="no column"):
            load_sizes(str(path), column="bytes")

    def test_csv_bad_value_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("size\n10\nbogus\n")
        with pytest.raises(ValueError, match="line 3"):
            load_sizes(str(path), column="size")

    def test_csv_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("size\n10\n0\n")
        with pytest.raises(ValueError, match="line 3: size must be >= 1"):
            load_sizes(str(path), column="size")

    def test_csv_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("size\n10\n\nbogus\n")
        with pytest.raises(ValueError, match="line 4: not an integer"):
            load_sizes(str(path), column="size")


class TestProfile:
    def test_nine_and_ten_group_together(self):
        ds = SizeDataset("t", [9, 10])
        report = profile(ds, PadSpec.padme())
        assert report.set_sizes == [2, 2]
        assert report.unique_count == 0
        assert report.unique_pct == 0.0
        # overhead: (10-9)/9 and 0
        assert report.mean_overhead == pytest.approx(1 / 18, rel=1e-12)

    def test_identity_padding_all_unique(self):
        ds = SizeDataset("t", list(range(1, 101)))
        report = profile(ds, PadSpec("none"))
        assert report.unique_pct == 100.0
        assert report.mean_overhead == 0

    def test_histogram_conserves_total(self):
        ds = SizeDataset("t", list(range(1, 5001)))
        for spec in (PadSpec.padme(), PadSpec.next_p2(), PadSpec.fixed_block(512)):
            report = profile(ds, spec)
            # Anonymity-set size -> objects: a set of size k holds k objects.
            histogram = Counter(report.set_sizes)
            assert sum(histogram.values()) == len(ds.sizes)
            assert all(count % k == 0 for k, count in histogram.items())
            assert report.total == len(ds.sizes)

    @pytest.mark.parametrize(
        "spec",
        [PadSpec.padme(), PadSpec.next_p2(), PadSpec.fixed_block(512), PadSpec("none")],
    )
    def test_matches_grouping_oracle(self, spec):
        ds = SizeDataset("t", list(range(1, 10_001)))
        report = profile(ds, spec)
        per_object, unique = grouping_oracle(ds.sizes, spec.pad_len)
        assert report.set_sizes == per_object
        assert report.unique_count == unique

    def test_refinement_never_less_unique(self):
        # finer buckets can only split groups apart
        ds = log_uniform_sizes(3000, 1024, 2**28, seed=5)
        padme = profile(ds, PadSpec.padme())
        next2 = profile(ds, PadSpec.next_p2())
        assert padme.unique_count >= next2.unique_count

    def test_linear_in_dataset(self):
        # An exact Fraction sum is quadratic here: its denominator grows
        # with every distinct size.  A float mean takes well under a
        # second; 5 s leaves room for a slow or busy host.
        sizes = random.Random(23).sample(range(1 << 20, 1 << 40), 100_000)
        ds = SizeDataset("t", sizes)
        t0 = time.perf_counter()
        report = profile(ds, PadSpec.padme())
        assert time.perf_counter() - t0 < 5.0
        assert report.total == 100_000

    @pytest.mark.parametrize(
        "spec", [PadSpec.padme(), PadSpec.next_p2(), PadSpec.fixed_block(512)]
    )
    def test_mean_matches_exact_fractions(self, spec):
        ds = log_uniform_sizes(2000, 1, 2**40, seed=4)
        exact = sum(Fraction(spec.pad_len(s) - s, s) for s in ds.sizes) / len(ds.sizes)
        assert exact > 0
        mean = profile(ds, spec).mean_overhead
        assert abs(Fraction(mean) - exact) <= exact * Fraction(1, 10**12)

    def test_invalid_dataset(self):
        with pytest.raises(ValueError):
            SizeDataset("t", [])
        with pytest.raises(ValueError):
            SizeDataset("t", [1, 0])


class TestCompare:
    def test_row_order_follows_specs(self):
        ds = SizeDataset("t", list(range(1, 500)))
        specs = [PadSpec.fixed_block(512), PadSpec.next_p2(), PadSpec.padme()]
        reports = [profile(ds, spec) for spec in specs]
        assert [r.pad_name for r in reports] == ["block:512", "next2", "padme"]

    def test_log_uniform_overheads(self):
        ds = log_uniform_sizes(5000, 1024, 2**30, seed=1)
        padme = profile(ds, PadSpec.padme())
        next2 = profile(ds, PadSpec.next_p2())
        assert padme.mean_overhead_pct < 6.25  # per-size bound for L >= 1 KiB
        assert 30.0 <= next2.mean_overhead_pct <= 50.0

    def test_render_table_shape(self):
        ds = SizeDataset("t", [9, 10, 100])
        out = render_table([profile(ds, PadSpec.padme()), profile(ds, PadSpec("none"))])
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].split()[:2] == ["pad", "unique_pct"]

    def test_write_csv(self, tmp_path):
        ds = SizeDataset("t", [9, 10, 100])
        path = tmp_path / "out.csv"
        write_csv([profile(ds, PadSpec.padme())], str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pad,unique_pct,mean_overhead_pct,median_set,max_set"
        assert lines[1].startswith("padme,")


    def test_table_and_csv_share_cells(self, tmp_path):
        # The table rounds to 2 decimals and pads columns; the CSV keeps 4.
        ds = SizeDataset("t", [9, 10, 100, 1000, 1025])
        specs = ["block:512", "next2", "padme", "none"]
        reports = [profile(ds, PadSpec.from_string(s)) for s in specs]
        assert render_table(reports).splitlines() == [
            "pad        unique_pct  mean_overhead_pct  median_set  max_set",
            "block:512  40.00       2214.63            3           3      ",
            "next2      60.00       53.60              1           2      ",
            "padme      60.00       4.73               1           2      ",
            "none       100.00      0.00               1           1      ",
        ]
        path = tmp_path / "out.csv"
        write_csv(reports, str(path))
        assert path.read_bytes() == (
            b"pad,unique_pct,mean_overhead_pct,median_set,max_set\r\n"
            b"block:512,40.0000,2214.6285,3,3\r\n"
            b"next2,60.0000,53.5965,1,2\r\n"
            b"padme,60.0000,4.7315,1,2\r\n"
            b"none,100.0000,0.0000,1,1\r\n"
        )

class TestSynthetic:
    def test_log_uniform_bounds_and_determinism(self):
        ds1 = log_uniform_sizes(500, 2048, 2**20, seed=9)
        ds2 = log_uniform_sizes(500, 2048, 2**20, seed=9)
        assert ds1.sizes == ds2.sizes
        assert all(2048 <= s <= 2**20 for s in ds1.sizes)
