import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    K256_G,
    _k256_add,
    is_on_curve,
    k256_forward_map_reference,
    k256_map_candidates,
    legendre_pure,
    map_from_curve_reference,
    map_to_curve_reference,
    scalar_mult,
    seeded_stream,
    x25519_oracle,
)
from purb import curve25519 as c25519
from purb import fieldmath
from purb import secp256k1 as k256
from purb.rng import SeededSource, seeded_rng

# Published test vectors for the 64-byte pair codec's maps:
# (x, y, preimage per branch or None).
K256_MAP_VECTORS = [
    (0xC27FB7A3283A7D3EC9F96421545EF6F58ACE7B7106C8A1B907C0AE8A7598159C,
     0xE05A060E839EF79FC0C1267CA17880C9584CDD34C05F969555482207E6851F2A,
     (0xC0AD127AA36824D65B1F5BE74DE1AA25BC4D5CBECEE154620A12682AFC87DF98,
      0xD40FD5BC519924848F13273B1D857CBA42D45E789EAA4E47F458B83ABD5F8D1C,
      0xDE6361417DEB440B3A30592443635CF9CF42F9B5F5B891C11E119F0971B570AC,
      0xD55135CE41BB4D055B3757F4AF1D6537137376D75270CAAEDA68382D25D00708)),
    (0xF5F74FAB3EBBBCFDDCAEF6CCD14EB934F9435A4E4A1ED2D875352C47306D6C2F,
     0xEA6A5B2AE109897D046E1504F7A382D61EB49A8AAE8852EF48E29466194D9E66,
     (None, None,
      0xE8362DF238E0405B4921874774F9EBCA36DFE21B1A49AE2D0FA23FD411A262A6,
      0x9E453426AC97315519D11D63C3BB27EE89A7EC855661DCE4E428F6CC0BE059CC)),
    (0x016A682D1DF4F869B32C48B0A9B442A1493949FB85D951D121C1143BD3D5C1AF,
     0x38D33FE5D3F9B4B982E37DFF7561428D47EF4DDF654BD95951B04E90A3BE50E7,
     (None, None, None, None)),
    (0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE,
     0x4218F20AE6C646B363DB68605822FB14264CA8D2587FDD6FBC750D587E76A7EE,
     (None, None, None, None)),
    (0x1,
     0xBDE70DF51939B94C9C24979FA7DD04EBD9B3572DA7802290438AF2A681895441,
     (0xD3779B573CB17828AC118CFF74412AB5B84C86F8A92F48B8EFCBE4C70A675631,
      0xEA6F729DDC884123F0130AA0339BDA362166D034FE50D9D753BF0DDE7721FA3F,
      None, None)),
]

# (64-byte encoding hex, expected x, expected y parity)
K256_DECODE_VECTORS = [
    ("54cad227b2c98d5f7c788cfc3dafd652f58f69cfef632b822b35d0b0e24fc03a"
     "d28ca14b6f62d45379c53f70ee405ca92ce7b6f970831305f27dc41eb69de06e",
     0x11628903328891AE09D108D89243E47E109FE7B8BB1E2DF1A3AE9B0E7808549C, 0),
    ("717e63d771dbda6767d58f26ab5f549bd2d18acf59ff50775f4eb50ac0174df1"
     "7dd034c8ed0811615e3ebb36f8f33e09238e4da8f5019d3700784f37c1535394",
     0x7281150CEBC3D7B3BBB992F581BBCB9E304F8744F01998A71F5DE114F82291C4, 0),
    ("00" * 64,
     0x1B412E7A966D2C243DBC5B18B7F9BAF185BCFE4138960479641AB1E63B381E11, 1),
]


class TestSecp256k1Group:
    def test_generator_on_curve(self):
        assert is_on_curve(K256_G)

    def test_scalar_mult_matches_native(self):
        from cryptography.hazmat.primitives.asymmetric import ec

        rng = seeded_rng(11)
        for _ in range(10):
            k = int.from_bytes(rng.randbytes(32), "big") % k256.N or 1
            nums = ec.derive_private_key(k, ec.SECP256K1()).public_key().public_numbers()
            assert scalar_mult(k) == (nums.x, nums.y)

    def test_order(self):
        assert scalar_mult(k256.N + 1) == K256_G


class TestSecp256k1Codec:
    @pytest.mark.parametrize("x,y,preimages", K256_MAP_VECTORS)
    def test_reverse_map_vectors(self, x, y, preimages):
        for branch, want in enumerate(preimages):
            got = k256.reverse_map(x, y, branch)
            if want is None:
                assert got is None
            else:
                assert got == want
                assert k256.forward_map_all([got])[0] == (x, y)

    @pytest.mark.parametrize("rep_hex,x,parity", K256_DECODE_VECTORS)
    def test_decode_vectors(self, rep_hex, x, parity):
        px, py = k256.unhide([bytes.fromhex(rep_hex)])[0]
        assert px == x
        assert py & 1 == parity

    def test_forward_map_total_at_zero(self):
        assert is_on_curve(k256.forward_map_all([0])[0])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=k256.P - 1))
    @example(0)  # s = 0: no third candidate
    @example(1)
    @example(k256.P - 1)
    def test_forward_map_agrees_with_reference(self, u):
        assert k256.forward_map_all([u])[0] == k256_forward_map_reference(u)

    def test_zero_resolves_on_first_candidate(self):
        # At u = 0 the third candidate is undefined (3s = 0), so the map
        # relies on the first, x = C2, being on the curve.
        x = k256_map_candidates(0)[0]
        assert legendre_pure(x**3 + 7, k256.P) == 1
        assert k256.forward_map_all([0])[0][0] == x

    def test_forward_map_resolves_on_every_candidate(self):
        rng = seeded_rng(27)
        resolved = [0, 0, 0]
        for _ in range(200):
            u = int.from_bytes(rng.randbytes(32), "big") % k256.P
            x, _ = k256.forward_map_all([u])[0]
            resolved[k256_map_candidates(u).index(x)] += 1
        assert all(resolved), resolved

    def test_map_denominator_never_vanishes(self):
        # 1 + B + u^2 = 0 would need u^2 = -8, and -8 is a non-square mod P,
        # so neither the forward map nor reverse_map guards against it.
        assert legendre_pure(-8 % k256.P, k256.P) == -1

    def test_preimage_uniqueness(self):
        rng = seeded_rng(12)
        for _ in range(30):
            u = int.from_bytes(rng.randbytes(32), "big") % k256.P
            x, y = k256.forward_map_all([u])[0]
            assert is_on_curve((x, y))
            hits = [
                v
                for v in (k256.reverse_map(x, y, j) for j in range(4))
                if v is not None
            ]
            assert len(set(hits)) == len(hits)
            assert sum(v == u for v in hits) == 1

    def test_hide_unhide_roundtrip(self):
        rng = seeded_rng(13)
        for _ in range(40):
            pt = scalar_mult(int.from_bytes(rng.randbytes(32), "big") % k256.N or 1)
            rep = k256.hide(pt, rng)
            assert len(rep) == 64
            assert k256.unhide([rep])[0] == pt

    def test_unhide_opposite_pair_returns_first_point(self):
        # f(P - u) = -f(u), so u || (P - u) sums to the point at infinity,
        # and decode's infinity rule returns f(u).
        rng = seeded_rng(25)
        for _ in range(10):
            u = int.from_bytes(rng.randbytes(32), "big") % k256.P
            t = k256.forward_map_all([u])[0]
            assert _k256_add(t, k256.forward_map_all([k256.P - u])[0]) is None
            rep = u.to_bytes(32, "big") + (k256.P - u).to_bytes(32, "big")
            assert k256.unhide([rep])[0] == t
            assert is_on_curve(t)

    def test_unhide_equal_pair_doubles(self):
        rng = seeded_rng(26)
        for _ in range(10):
            u = int.from_bytes(rng.randbytes(32), "big") % k256.P
            t = k256.forward_map_all([u])[0]
            got = k256.unhide([u.to_bytes(32, "big") * 2])[0]
            assert got == _k256_add(t, t)
            assert is_on_curve(got)

    def test_hide_when_first_draw_maps_to_target(self):
        # The target is f(u) for hide's own first draw u, so that attempt
        # adds -f(u) + f(u) and takes the infinity rule.
        first_draw_kept = 0
        for seed in range(8):
            head = seeded_stream(seed.to_bytes(8, "big"), 32)
            u = int.from_bytes(head, "big")
            assert u < k256.P
            target = k256.forward_map_all([u])[0]
            rep = k256.hide(target, seeded_rng(seed))
            assert k256.unhide([rep])[0] == target
            if rep[:32] == head:
                v = int.from_bytes(rep[32:], "big")
                assert _k256_add(target, k256.forward_map_all([v])[0]) is None
                first_draw_kept += 1
        assert first_draw_kept

    def test_unhide_total(self):
        for data in (b"\x00" * 64, b"\xff" * 64, os.urandom(64)):
            assert is_on_curve(k256.unhide([data])[0])

    def test_unhide_length_checked(self):
        with pytest.raises(ValueError):
            k256.unhide([b"\x00" * 63])


class TestCurve25519Codec:
    def test_fast_map_agrees_with_reference(self):
        # unhide computes u alone, so u is what the textbook map is held to.
        # Count which branch the map takes: the first candidate
        # w = -A / (1 + 2r^2) is kept when it is the u of a curve point.
        rng = seeded_rng(14)
        branches = {True: 0, False: 0}
        for _ in range(80):
            rep = rng.randbytes(32)
            r = int.from_bytes(rep, "little") & ((1 << 254) - 1)
            u = map_to_curve_reference(r)[0]
            assert c25519.unhide([rep])[0] == u.to_bytes(32, "little")
            w = -c25519.A * pow(1 + 2 * r * r, -1, c25519.P) % c25519.P
            branches[u == w] += 1
        assert branches[True] and branches[False], branches

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=32, max_size=32))
    @example(b"\x00" * 32)  # r = 0
    @example(b"\xff" * 32)
    def test_unhide_agrees_with_reference_on_any_input(self, rep):
        r = int.from_bytes(rep, "little") & ((1 << 254) - 1)
        assert c25519.unhide([rep])[0] == map_to_curve_reference(r)[0].to_bytes(32, "little")

    def test_unhide_top_bit_patterns_agree_with_reference(self):
        rng = seeded_rng(24)
        for _ in range(8):
            r = int.from_bytes(rng.randbytes(32), "little") & ((1 << 254) - 1)
            want = map_to_curve_reference(r)[0].to_bytes(32, "little")
            for top in range(4):
                rep = (r | top << 254).to_bytes(32, "little")
                assert c25519.unhide([rep])[0] == want, top

    def test_inverse_map_agrees_with_reference(self):
        rng = seeded_rng(15)
        done = 0
        while done < 60:
            r = int.from_bytes(rng.randbytes(32), "little") & ((1 << 254) - 1)
            u, v = map_to_curve_reference(r)
            v_is_negative = v > (c25519.P - 1) // 2
            got = c25519.map_from_curve(u, v_is_negative)
            assert got == map_from_curve_reference(u, v_is_negative)
            assert got == min(r, c25519.P - r)
            done += 1

    @staticmethod
    def _assert_invsqrt_agrees_with_pow(x):
        p, sqrt_m1 = c25519.P, c25519.SQRT_M1
        isr = pow(x, (p - 5) // 8, p)
        quartic = x * isr * isr % p
        if quartic in (p - 1, p - sqrt_m1):
            isr = isr * sqrt_m1 % p
        got = c25519.invsqrt(x)
        assert got == (isr, quartic in (1, p - 1))
        if x:
            assert got[1] == (legendre_pure(x, p) == 1)

    def test_invsqrt_agrees_with_pow_form(self):
        p, sqrt_m1 = c25519.P, c25519.SQRT_M1
        for x in (0, 1, 2, p - 1, p - 2, sqrt_m1, p - sqrt_m1):
            self._assert_invsqrt_agrees_with_pow(x)
        rng = seeded_rng(29)
        for _ in range(200):
            self._assert_invsqrt_agrees_with_pow(int.from_bytes(rng.randbytes(32), "little") % p)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=c25519.P - 1))
    def test_invsqrt_agrees_with_pow_form_on_any_input(self, x):
        self._assert_invsqrt_agrees_with_pow(x)

    def test_hide_unhide_roundtrip(self):
        from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

        rng = seeded_rng(16)
        done = 0
        while done < 60:
            sk = rng.randbytes(32)
            pk = X25519PrivateKey.from_private_bytes(sk).public_key().public_bytes_raw()
            rep = c25519.hide(pk, rng)
            if rep is None:
                continue
            assert len(rep) == 32
            assert c25519.unhide([rep])[0] == pk
            done += 1

    @pytest.mark.parametrize("u", [0, c25519.P - c25519.A])
    def test_hide_unmappable_u_returns_none_without_drawing(self, u):
        class NoDraws:
            def randbytes(self, n):
                raise AssertionError("hide drew randomness")

        assert c25519.hide(u.to_bytes(32, "little"), NoDraws()) is None

    def test_unhide_ignores_top_bits(self):
        rng = seeded_rng(17)
        rep = bytearray(rng.randbytes(32))
        base = c25519.unhide([bytes(rep)])[0]
        for bit in (254, 255):
            flipped = bytearray(rep)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert c25519.unhide([bytes(flipped)])[0] == base

    def test_unhide_total(self):
        for data in (b"\x00" * 32, b"\xff" * 32, os.urandom(32)):
            out = c25519.unhide([data])[0]
            assert len(out) == 32

    def test_unhide_length_checked(self):
        with pytest.raises(ValueError):
            c25519.unhide([b"\x00" * 31])

    def test_x25519_denominator_never_vanishes(self):
        # 1 + 2r^2 = 0 would need r^2 = -1/2, a non-square mod 2^255 - 19.
        # Like the k256 map's -8 above, this lets unhide invert a whole
        # list of denominators at once with no zero to guard against.
        p = c25519.P
        assert legendre_pure(-pow(2, -1, p) % p, p) == -1

    def test_about_half_of_keys_encodable(self):
        from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

        rng = seeded_rng(18)
        noise = seeded_rng(28)  # hide's noise byte; keeps rng's key draws
        hits = 0
        n = 400
        for _ in range(n):
            pk = (
                X25519PrivateKey.from_private_bytes(rng.randbytes(32))
                .public_key()
                .public_bytes_raw()
            )
            hits += c25519.hide(pk, noise) is not None
        assert 0.4 < hits / n < 0.6


def _k256_rep(u, v):
    return u.to_bytes(32, "big") + v.to_bytes(32, "big")


_k256_u = st.integers(min_value=0, max_value=k256.P - 1)
K256_REPS = st.one_of(
    st.binary(min_size=64, max_size=64),
    st.sampled_from([b"\x00" * 64, b"\xff" * 64]),
    _k256_u.map(lambda u: _k256_rep(u, u)),  # f(u) + f(u) doubles
    _k256_u.map(lambda u: _k256_rep(u, -u % k256.P)),  # infinity rule
    _k256_u.map(lambda u: _k256_rep(0, u)),
    _k256_u.map(lambda u: _k256_rep(u, 0)),
)

_x25519_r = st.integers(min_value=0, max_value=(1 << 254) - 1)
X25519_REPS = st.one_of(
    st.binary(min_size=32, max_size=32),
    st.sampled_from([b"\x00" * 32, b"\xff" * 32]),
    # The two noise bits above r, in every pattern.
    st.tuples(_x25519_r, st.integers(0, 3)).map(
        lambda rt: (rt[0] | rt[1] << 254).to_bytes(32, "little")
    ),
)


def k256_unhide_oracle(rep):
    t = k256_forward_map_reference(int.from_bytes(rep[:32], "big") % k256.P)
    s = k256_forward_map_reference(int.from_bytes(rep[32:], "big") % k256.P)
    return _k256_add(t, s) or t


def x25519_unhide_oracle(rep):
    r = int.from_bytes(rep, "little") & ((1 << 254) - 1)
    return map_to_curve_reference(r)[0].to_bytes(32, "little")


def count_inversions(monkeypatch):
    """Count pow(a, -1, p) in the field kernel and in both codecs."""
    count = [0]

    def counting_pow(base, exp, mod=None):
        count[0] += exp == -1
        return pow(base, exp, mod)

    for module in (fieldmath, c25519, k256):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    return count


class TestBatchedUnhide:
    """unhide decodes a list at once, sharing its inversions; each
    element decodes as it would alone."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(K256_REPS, max_size=10), st.lists(K256_REPS, max_size=5))
    def test_k256_batch_agrees_with_oracle(self, a, b):
        got = k256.unhide(a + b)
        assert got == [k256_unhide_oracle(rep) for rep in a + b]
        assert got == k256.unhide(a) + k256.unhide(b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(X25519_REPS, max_size=16), st.lists(X25519_REPS, max_size=8))
    def test_x25519_batch_agrees_with_oracle(self, a, b):
        got = c25519.unhide(a + b)
        assert got == [x25519_unhide_oracle(rep) for rep in a + b]
        assert got == c25519.unhide(a) + c25519.unhide(b)

    def test_one_bad_length_fails_the_batch(self):
        with pytest.raises(ValueError):
            k256.unhide([b"\x00" * 64, b"\x00" * 63])
        with pytest.raises(ValueError):
            c25519.unhide([b"\x00" * 32, b"\x00" * 33])

    @pytest.mark.parametrize("n", [1, 8, 60])
    def test_x25519_one_inversion_per_batch(self, monkeypatch, n):
        rng = seeded_rng(b"inv-x25519")
        reps = [rng.randbytes(32) for _ in range(n)]
        count = count_inversions(monkeypatch)
        c25519.unhide(reps)
        assert count[0] == 1

    @pytest.mark.parametrize("n", [1, 8, 60])
    def test_k256_two_inversions_per_batch(self, monkeypatch, n):
        # One for every half's forward map, third candidates included,
        # and one for every pair's addition, doublings included.
        rng = seeded_rng(b"inv-k256")
        reps = [rng.randbytes(64) for _ in range(n)]
        u = int.from_bytes(rng.randbytes(32), "big") % k256.P
        reps += [_k256_rep(u, u), _k256_rep(u, k256.P - u)]
        count = count_inversions(monkeypatch)
        k256.unhide(reps)
        assert count[0] == 2


class TestNativeDhAgainstLadder:
    def test_x25519_matches_oracle(self):
        from cryptography.hazmat.primitives.asymmetric.x25519 import (
            X25519PrivateKey,
            X25519PublicKey,
        )

        rng = seeded_rng(19)
        for _ in range(10):
            sk = rng.randbytes(32)
            peer = (
                X25519PrivateKey.from_private_bytes(rng.randbytes(32))
                .public_key()
                .public_bytes_raw()
            )
            native = X25519PrivateKey.from_private_bytes(sk).exchange(
                X25519PublicKey.from_public_bytes(peer)
            )
            assert native == x25519_oracle(sk, peer)

    def test_secp256k1_ecdh_matches_ladder(self):
        from cryptography.hazmat.primitives.asymmetric import ec

        rng = seeded_rng(20)
        for _ in range(6):
            a = int.from_bytes(rng.randbytes(32), "big") % k256.N or 1
            b = int.from_bytes(rng.randbytes(32), "big") % k256.N or 1
            pub_b = scalar_mult(b)
            shared = ec.derive_private_key(a, ec.SECP256K1()).exchange(
                ec.ECDH(),
                ec.EllipticCurvePublicNumbers(*pub_b, ec.SECP256K1()).public_key(),
            )
            want = scalar_mult(a, pub_b)[0].to_bytes(32, "big")
            assert shared == want


def test_x25519_map_from_curve_rejects_unmappable_u():
    # u = 0 is the order-2 point, in the unmappable half of the curve.
    assert not c25519.can_map_from_curve(0)
    with pytest.raises(ValueError, match="no representative"):
        c25519.map_from_curve(0, False)


def test_k256_reverse_map_branch0_rejects_odd_y_at_t1_zero():
    # f(0) = (C2, y0) is where t1 = C1 - (2x + 1) vanishes: branch 0 keeps
    # only the even y there, and y0 is even.
    (x, y0) = k256.forward_map_all([0])[0]
    assert x == k256.C2 and y0 % 2 == 0
    assert k256.reverse_map(x, y0, 0) == 0
    assert k256.reverse_map(x, k256.P - y0, 0) is None


class _OnesFirst(SeededSource):
    """A seeded source whose first draw is all ff bytes."""

    drawn = False

    def randbytes(self, n):
        if not self.drawn:
            self.drawn = True
            return b"\xff" * n
        return super().randbytes(n)


def test_k256_hide_redraws_u_not_below_p():
    # 2^256 - 1 >= P, so hide rejects the first u and draws again.
    rep = k256.hide(K256_G, _OnesFirst(61))
    assert rep[:32] != b"\xff" * 32
    assert k256.unhide([rep]) == [K256_G]
