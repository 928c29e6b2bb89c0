import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305

from helpers import K256_N, read_public_key
from purb.rng import seeded_rng
from purb.suites import (
    ENTRY_LEN,
    ENTRY_PLAIN_LEN,
    PASSWORD,
    PUBLIC_KEY,
    SUITES,
    Curve25519Group,
    Secp256k1Group,
    decap,
    encap,
    keygen,
    password_secret,
    read_secret_key,
    write_key_files,
)


class TestRegistry:
    def test_suite_a(self, registry):
        a = registry.by_alias("A")
        assert a.encoded_key_len == 64
        assert a.allowed_positions == (0,)

    def test_suite_b(self, registry):
        b = registry.by_alias("B")
        assert b.encoded_key_len == 32
        assert b.allowed_positions == (0, 64)

    def test_suite_f_positions(self, registry):
        assert registry.by_alias("F").allowed_positions == (0, 32, 64, 96, 128, 256)

    def test_canonical_order(self, registry):
        aliases = [s.alias for s in registry]
        assert aliases == ["A", "B", "C", "D", "E", "F", "pw"]
        assert [s.suite_id for s in registry] == list(range(7))

    def test_password_suite(self, registry):
        pw = registry.by_alias("pw")
        assert pw.kind == PASSWORD
        assert pw.encoded_key_len == 32
        assert pw.group is None

    def test_entry_len_uniform_48_plus_tag(self, registry):
        for suite in registry:
            assert suite.entry_len == 48 + 16 == ENTRY_LEN

    def test_immutable(self, registry):
        with pytest.raises(Exception):
            registry.by_alias("A").encoded_key_len = 1

    def test_fixed_table(self, registry):
        # The table is part of the format: each row pinned, then the
        # properties layout and sealing rely on.
        k256, x25519 = Secp256k1Group, Curve25519Group
        chacha = ChaCha20Poly1305
        want = [
            (0, "A", PUBLIC_KEY, k256, 64, AESGCM, 16, (0,)),
            (1, "B", PUBLIC_KEY, x25519, 32, AESGCM, 16, (0, 64)),
            (2, "C", PUBLIC_KEY, k256, 64, AESGCM, 32, (0, 96)),
            (3, "D", PUBLIC_KEY, x25519, 32, AESGCM, 32, (0, 32, 64, 160)),
            (4, "E", PUBLIC_KEY, k256, 64, chacha, 32, (0, 64, 128, 192)),
            (5, "F", PUBLIC_KEY, x25519, 32, chacha, 32, (0, 32, 64, 96, 128, 256)),
            (6, "pw", PASSWORD, type(None), 32, chacha, 32, (0, 32, 288)),
        ]
        got = [
            (s.suite_id, s.alias, s.kind, type(s.group), s.encoded_key_len,
             s.ep_aead, s.ep_key_len, s.allowed_positions)
            for s in SUITES
        ]
        assert got == want
        assert list(registry) == list(SUITES)
        for suite in SUITES:
            assert registry.by_id(suite.suite_id) is suite
            assert registry.by_alias(suite.alias) is suite
            if suite.group is not None:
                assert suite.group.encoded_len == suite.encoded_key_len
            # Positions start at 0 and their key ranges do not overlap,
            # or the XOR over positions would count some bytes twice.
            pos = suite.allowed_positions
            assert pos[0] == 0
            for a, b in zip(pos, pos[1:]):
                assert b >= a + suite.encoded_key_len
            # Every AEAD takes its key length and adds a 16-byte tag.
            sealed = suite.ep_aead(bytes(suite.ep_key_len)).encrypt(
                bytes(12), bytes(ENTRY_PLAIN_LEN), None
            )
            assert len(sealed) == suite.entry_len


class TestKeygen:
    def test_roundtrip_all_public_suites(self, registry):
        rng = seeded_rng(30)
        for suite in [s for s in registry if s.kind == PUBLIC_KEY]:
            kp = keygen(suite, rng)
            assert len(kp.pk_encoded) == suite.encoded_key_len
            assert suite.group.unhide([kp.pk_encoded])[0] == kp.pk

    def test_deterministic_under_seed(self, registry):
        b = registry.by_alias("B")
        kp1 = keygen(b, seeded_rng(31))
        kp2 = keygen(b, seeded_rng(31))
        assert (kp1.sk, kp1.pk_encoded) == (kp2.sk, kp2.pk_encoded)

    def test_mean_attempts_near_two_for_elligator_suites(self, registry):
        # Half of all points are encodable, so attempts are geometric(1/2).
        b = registry.by_alias("B")
        rng = seeded_rng(32)
        attempts = [keygen(b, rng).attempts for _ in range(1000)]
        mean = sum(attempts) / len(attempts)
        assert 1.8 < mean < 2.2

    def test_pair_codec_never_resamples(self, registry):
        a = registry.by_alias("A")
        rng = seeded_rng(33)
        assert all(keygen(a, rng).attempts == 1 for _ in range(50))

    def test_rejects_password_suite(self, registry):
        with pytest.raises(ValueError):
            keygen(registry.by_alias("pw"), seeded_rng(34))


class TestEncapDecap:
    @pytest.mark.parametrize("alias", ["A", "B"])
    def test_roundtrip_oracle_100_pairs(self, registry, alias):
        suite = registry.by_alias(alias)
        rng = seeded_rng(35)
        for _ in range(100):
            kp = keygen(suite, rng)
            eph = keygen(suite, rng)
            keys = encap(suite, eph, [kp.pk])
            assert len(eph.pk_encoded) == suite.encoded_key_len
            assert decap(suite, kp.native_key, eph.pk_encoded) == keys[0]

    def test_wrong_key_gives_different_secret(self, registry):
        suite = registry.by_alias("B")
        rng = seeded_rng(36)
        for _ in range(100):
            kp = keygen(suite, rng)
            other = keygen(suite, rng)
            eph = keygen(suite, rng)
            keys = encap(suite, eph, [kp.pk])
            assert decap(suite, other.native_key, eph.pk_encoded) != keys[0]

    def test_multi_recipient_keys_distinct(self, registry, keypairs):
        suite = registry.by_alias("B")
        pks = [kp.pk for kp in keypairs["B"]]
        keys = encap(suite, keygen(suite, seeded_rng(37)), pks)
        assert len(set(keys)) == len(keys)

    def test_one_exponentiation_per_recipient(self, registry, keypairs, monkeypatch):
        suite = registry.by_alias("B")
        calls = {"dh": 0}
        real_dh = type(suite.group).dh

        def counting_dh(self, sk, element):
            calls["dh"] += 1
            return real_dh(self, sk, element)

        monkeypatch.setattr(type(suite.group), "dh", counting_dh)
        pks = [kp.pk for kp in keypairs["B"][:3]]
        encap(suite, keygen(suite, seeded_rng(38)), pks)
        assert calls["dh"] == 3

    @pytest.mark.parametrize("alias", ["A", "B"])
    def test_one_private_key_build_per_encap(self, registry, keypairs, monkeypatch, alias):
        # Builds are counted across keygen plus encap: the ephemeral's
        # native key comes from keygen, and the recipients only add
        # exchanges, never another key build.
        suite = registry.by_alias(alias)
        group = type(suite.group)
        counts = {"private_key": 0, "keygen_raw": 0, "derive": 0}
        real_private_key, real_keygen_raw = group.private_key, group.keygen_raw
        real_derive = ec.derive_private_key

        def counting_private_key(self, sk):
            counts["private_key"] += 1
            return real_private_key(self, sk)

        def counting_keygen_raw(self, rng):
            counts["keygen_raw"] += 1
            return real_keygen_raw(self, rng)

        def counting_derive(*args, **kwargs):
            counts["derive"] += 1
            return real_derive(*args, **kwargs)

        monkeypatch.setattr(group, "private_key", counting_private_key)
        monkeypatch.setattr(group, "keygen_raw", counting_keygen_raw)
        monkeypatch.setattr(ec, "derive_private_key", counting_derive)
        pks = [kp.pk for kp in keypairs[alias]] * 5
        seen = set()
        for n in (1, 3, 40):
            counts.update(private_key=0, keygen_raw=0, derive=0)
            eph = keygen(suite, seeded_rng(45))
            keys = encap(suite, eph, pks[:n])
            assert len(keys) == n
            # One build per keygen attempt (the pair codec never retries);
            # the same seed gives the same attempts at every n.
            assert counts["private_key"] == counts["keygen_raw"]
            assert counts["derive"] == (1 if alias == "A" else 0)
            seen.add(counts["private_key"])
        assert len(seen) == 1
        if alias == "A":
            assert seen == {1}

    @pytest.mark.parametrize("alias", ["A", "B"])
    def test_decap_accepts_native_key(self, registry, alias):
        suite = registry.by_alias(alias)
        kp = keygen(suite, seeded_rng(47))
        eph = keygen(suite, seeded_rng(48))
        keys = encap(suite, eph, [kp.pk])
        assert decap(suite, suite.group.private_key(kp.sk), eph.pk_encoded) == keys[0]
        assert decap(suite, kp.native_key, eph.pk_encoded) == keys[0]

    @pytest.mark.parametrize("scalar", [0, K256_N, 2**256 - 1])
    def test_k256_private_key_range_checked(self, registry, scalar):
        group = registry.by_alias("A").group
        with pytest.raises(ValueError):
            group.private_key(scalar.to_bytes(32, "big"))

    def test_decap_total_on_zero_tau(self, registry):
        for alias in ("A", "B"):
            suite = registry.by_alias(alias)
            kp = keygen(suite, seeded_rng(39))
            out = decap(suite, kp.native_key, b"\x00" * suite.encoded_key_len)
            assert len(out) == 32

    def test_decap_checks_length(self, registry):
        suite = registry.by_alias("B")
        kp = keygen(suite, seeded_rng(40))
        with pytest.raises(ValueError):
            decap(suite, kp.native_key, b"\x00" * 31)

    def test_empty_recipients_rejected(self, registry):
        suite = registry.by_alias("B")
        eph = keygen(suite, seeded_rng(41))
        with pytest.raises(ValueError):
            encap(suite, eph, [])

    def test_ordering_stable_across_runs(self, registry):
        # Same recipient multiset, same seed: identical tau per suite.
        suite = registry.by_alias("B")
        rng = seeded_rng(42)
        kp = keygen(suite, rng)
        eph1, eph2 = keygen(suite, seeded_rng(43)), keygen(suite, seeded_rng(43))
        keys1, keys2 = encap(suite, eph1, [kp.pk]), encap(suite, eph2, [kp.pk])
        assert eph1.pk_encoded == eph2.pk_encoded and keys1 == keys2


class TestPasswordSecret:
    def test_deterministic(self, registry):
        pw = registry.by_alias("pw")
        salt = b"\x07" * 32
        assert password_secret(pw, salt, b"s3cret") == password_secret(pw, salt, b"s3cret")

    def test_salt_bit_flip_changes_secret(self, registry):
        pw = registry.by_alias("pw")
        salt = bytearray(32)
        s1 = password_secret(pw, bytes(salt), b"s3cret")
        salt[0] ^= 1
        s2 = password_secret(pw, bytes(salt), b"s3cret")
        assert s1 != s2

    def test_empty_passphrase_valid(self, registry):
        pw = registry.by_alias("pw")
        assert len(password_secret(pw, b"\x00" * 32, b"")) == 32

    def test_wrong_salt_length(self, registry):
        pw = registry.by_alias("pw")
        with pytest.raises(ValueError):
            password_secret(pw, b"\x00" * 16, b"x")

    def test_rejects_public_key_suite(self, registry):
        with pytest.raises(ValueError):
            password_secret(registry.by_alias("B"), b"\x00" * 32, b"x")


class TestHideUnhideInvariants:
    """Codec bijectivity and output balance at the contract scale."""

    N = 10_000

    @pytest.mark.parametrize("alias", ["B", "A"])
    def test_roundtrip_and_bit_balance(self, registry, alias):
        suite = registry.by_alias(alias)
        rng = seeded_rng(b"balance-" + alias.encode())
        nbits = suite.encoded_key_len * 8
        ones = [0] * nbits
        for _ in range(self.N):
            kp = keygen(suite, rng)
            assert suite.group.unhide([kp.pk_encoded])[0] == kp.pk
            rep = int.from_bytes(kp.pk_encoded, "big")
            for bit in range(nbits):
                ones[bit] += (rep >> bit) & 1
        for bit, count in enumerate(ones):
            freq = count / self.N
            assert 0.48 <= freq <= 0.52, f"bit {bit} frequency {freq}"


class TestKeyFiles:
    def test_write_and_read(self, registry, tmp_path):
        suite = registry.by_alias("B")
        kp = keygen(suite, seeded_rng(44))
        prefix = str(tmp_path / "alice")
        sk_path, pk_path = write_key_files(prefix, kp)
        assert read_secret_key(sk_path) == kp.sk
        assert read_public_key(pk_path) == kp.pk_encoded
        assert len(read_secret_key(sk_path)) == 32

    def test_hex_secret_key_accepted(self, registry, tmp_path):
        suite = registry.by_alias("B")
        kp = keygen(suite, seeded_rng(45))
        path = tmp_path / "hexkey.sk"
        path.write_text(kp.sk.hex() + "\n")
        assert read_secret_key(str(path)) == kp.sk
