from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LEAKAGE_MAX_LEN,
    leakage_bits,
    leakage_by_enumeration,
    padme_split,
    permitted_length,
    scan_padded,
)
from purb.padding import PadSpec, overhead, padme_len


class TestPadmePointValues:
    @pytest.mark.parametrize(
        "length,expected",
        [(8, 8), (9, 10), (10, 10), (0, 0), (1, 1), (2, 2), (100, 104)],
    )
    def test_known_values(self, length, expected):
        assert padme_len(length) == expected

    def test_100_matches_scan_oracle(self):
        assert scan_padded(100) == 104

    @pytest.mark.parametrize("length", [2**k for k in range(1, 40)])
    def test_powers_of_two_are_fixed_points(self, length):
        assert padme_len(length) == length

    def test_params_of_nine(self):
        # 9 = 1.001b * 2^3: the exponent 3 is 2 bits wide, so 1 bit clears
        assert padme_split(9) == (3, 2, 1)
        assert padme_len(9) == 10

    def test_params_clamp_below_two(self):
        assert padme_split(0) == padme_split(1) == (0, 1, 0)
        assert (padme_len(0), padme_len(1)) == (0, 1)


class TestPadmeAgainstOracle:
    @pytest.mark.parametrize("length", list(range(0, 300)))
    def test_small_exhaustive(self, length):
        if length >= 2:
            assert padme_len(length) == scan_padded(length)
        else:
            assert padme_len(length) == length

    @given(st.integers(min_value=2, max_value=2**52))
    @settings(max_examples=300)
    def test_fixed_point_characterization(self, length):
        padded = padme_len(length)
        assert padded >= length
        assert permitted_length(padded)
        # nothing permitted in between
        zero_bits = padme_split(length)[2]
        assert padded - length < 1 << zero_bits

    @given(st.integers(min_value=0, max_value=2**52))
    @settings(max_examples=300)
    def test_idempotent(self, length):
        assert padme_len(padme_len(length)) == padme_len(length)

    @given(st.integers(min_value=0, max_value=2**52), st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=300)
    def test_monotone(self, length, delta):
        assert padme_len(length) <= padme_len(length + delta)


class TestOtherSpecs:
    @pytest.mark.parametrize(
        "length,expected", [(0, 0), (1, 1), (2, 2), (3, 4), (9, 16), (1024, 1024), (1025, 2048)]
    )
    def test_next_p2(self, length, expected):
        assert PadSpec.next_p2().pad_len(length) == expected

    @pytest.mark.parametrize(
        "block,length,expected",
        [(512, 513, 1024), (512, 512, 512), (512, 1, 512), (512, 0, 0), (7, 15, 21)],
    )
    def test_fixed_block(self, block, length, expected):
        assert PadSpec.fixed_block(block).pad_len(length) == expected

    def test_fixed_block_requires_positive(self):
        with pytest.raises(ValueError):
            PadSpec.fixed_block(0)

    def test_none_is_identity(self):
        spec = PadSpec("none")
        assert [spec.pad_len(n) for n in range(20)] == list(range(20))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PadSpec.padme().pad_len(-1)

    @pytest.mark.parametrize(
        "text,spec",
        [
            ("padme", PadSpec.padme()),
            ("next2", PadSpec.next_p2()),
            ("none", PadSpec("none")),
            ("block:512", PadSpec.fixed_block(512)),
        ],
    )
    def test_parse_roundtrip(self, text, spec):
        assert PadSpec.from_string(text) == spec
        assert str(spec) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            PadSpec.from_string("bogus")


class TestLeakage:
    def test_fixed_block_at_2_20(self):
        assert leakage_bits(PadSpec.fixed_block(512), 2**20) == 11

    def test_none_at_100(self):
        assert leakage_bits(PadSpec("none"), 100) == 7

    def test_next_p2_at_2_20(self):
        assert leakage_bits(PadSpec.next_p2(), 2**20) == 5

    @pytest.mark.parametrize(
        "spec",
        [PadSpec.padme(), PadSpec.next_p2(), PadSpec.fixed_block(512), PadSpec("none")],
    )
    @pytest.mark.parametrize("max_len", [1, 2, 100, 1000, 65536])
    def test_matches_enumeration_oracle(self, spec, max_len):
        assert leakage_bits(spec, max_len) == leakage_by_enumeration(
            spec.pad_len, max_len
        )

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            leakage_bits(PadSpec.padme(), LEAKAGE_MAX_LEN + 1)
        with pytest.raises(ValueError):
            leakage_bits(PadSpec.padme(), 0)


class TestOverhead:
    def test_nine(self):
        assert overhead(PadSpec.padme(), 9) == (1, Fraction(1, 9))

    def test_eight(self):
        assert overhead(PadSpec.padme(), 8) == (0, Fraction(0))

    def test_1024_additive_bound(self):
        add, _ = overhead(PadSpec.padme(), 1024)
        assert add <= 2 ** (10 - 4) - 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            overhead(PadSpec.padme(), 0)

    @given(st.integers(min_value=2, max_value=2**52))
    @settings(max_examples=200)
    def test_additive_bound_property(self, length):
        exponent, width, _ = padme_split(length)
        add, mult = overhead(PadSpec.padme(), length)
        assert add <= 2 ** (exponent - width) - 1
        assert mult == Fraction(add, length)

    def test_true_maximum_is_at_129(self):
        # The often-quoted worst case 1/9 (9 -> 10) is only the second
        # peak: at 129 the exponent is 7 but its width is 3 bits, so four
        # low bits are cleared and 129 pads to 144, costing 15/129.
        best = max(
            (Fraction(padme_len(n) - n, n), n) for n in range(2, 1 << 17)
        )
        assert best == (Fraction(15, 129), 129)
        assert Fraction(15, 129) > Fraction(1, 9)


def test_pad_len_function_delegates():
    assert PadSpec.padme().pad_len(9) == 10
