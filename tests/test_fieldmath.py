import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import invert_pure, legendre_pure
from purb import fieldmath
from purb.rng import seeded_rng

P1 = 2**255 - 19
P2 = 2**256 - 2**32 - 977


def test_accelerated_matches_pure():
    rng = seeded_rng(50)
    for p in (P1, P2):
        for _ in range(25):
            a = int.from_bytes(rng.randbytes(32), "big") % p or 1
            assert fieldmath.legendre(a, p) == legendre_pure(a, p)


def test_zero_is_square():
    assert fieldmath.is_square(0, P1)
    assert fieldmath.is_square(P2, P2)


def test_invert_identity():
    for p in (P1, P2):
        values = [2, 3, 12345, p - 1]
        for a, inv in zip(values, fieldmath.invert_all(values, p)):
            assert inv * a % p == 1


def test_sqrt_for_p_3_mod_4():
    rng = seeded_rng(52)
    for a in [0, 1, 4, P2 - 1] + [
        int.from_bytes(rng.randbytes(32), "big") % P2 for _ in range(40)
    ]:
        if legendre_pure(a, P2) == -1:
            with pytest.raises(ValueError):
                fieldmath.sqrt(a, P2)
        else:
            root = fieldmath.sqrt(a, P2)
            assert 0 <= root < P2
            assert root * root % P2 == a % P2
    assert fieldmath.sqrt(-3, P2) ** 2 % P2 == P2 - 3


@pytest.mark.parametrize("p", [P1, P2])
class TestJacobiEdgeCases:
    def test_multiples_of_p_are_zero(self, p):
        for a in (0, p, 2 * p, -p):
            assert fieldmath.legendre(a, p) == 0

    def test_negative_matches_euler(self, p):
        for a in (-1, -2, -3, -(p - 1), -(p + 5), -(3 * p + 7)):
            assert fieldmath.legendre(a, p) == legendre_pure(a, p)

    def test_at_least_p_matches_euler(self, p):
        for a in (p + 1, p + 2, 2 * p - 1, 5 * p + 3, p * p + 11, 2**600 + 1):
            assert fieldmath.legendre(a, p) == legendre_pure(a, p)

    def test_product_of_two_non_squares_is_square(self, p):
        rng = seeded_rng(51)
        non_squares = []
        while len(non_squares) < 6:
            a = int.from_bytes(rng.randbytes(32), "big") % p
            if legendre_pure(a, p) == -1:
                non_squares.append(a)
        for a, b in zip(non_squares, non_squares[1:]):
            assert fieldmath.legendre(a, p) == fieldmath.legendre(b, p) == -1
            assert fieldmath.legendre(a * b, p) == 1
            assert fieldmath.legendre(a * b % p, p) == 1
            assert not fieldmath.is_square(a, p)
            assert fieldmath.is_square(a * b, p)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(min_value=-(2**520), max_value=2**520), p=st.sampled_from([P1, P2]))
def test_legendre_matches_euler(a, p):
    assert fieldmath.legendre(a, p) == legendre_pure(a, p)


class TestInvertAll:
    def test_matches_pure_elementwise(self):
        rng = seeded_rng(53)
        for p in (P1, P2):
            for n in (1, 2, 3, 17):
                values = [
                    int.from_bytes(rng.randbytes(32), "big") % p or 1 for _ in range(n)
                ]
                # Unreduced and negative inputs invert as their residues.
                values += [p + 2, -5, 2**300 + 1]
                want = [invert_pure(a, p) for a in values]
                assert fieldmath.invert_all(values, p) == want

    def test_empty(self):
        assert fieldmath.invert_all([], P1) == []

    @pytest.mark.parametrize("p", [P1, P2])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_zero_anywhere_raises(self, p, where):
        for zero in (0, p, -3 * p):
            values = [5, 7, 11]
            values[where] = zero
            with pytest.raises(ValueError):
                fieldmath.invert_all(values, p)
