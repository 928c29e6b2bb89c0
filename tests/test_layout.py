import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    greedy_placement,
    min_max_last_slot,
    permitted_length,
    xor_ranges_bytewise,
)
from purb.codec import Identity, Recipient, decode, derive_entry_keys, encode_detailed
from purb.layout import HeaderLayout, in_range_positions, xor_encode, xor_extract
from purb.rng import seeded_rng
from purb.suites import decap, keygen


def suites_by_alias(registry, *aliases):
    return [registry.by_alias(a) for a in aliases]


def global_slot(suite, slot):
    """Slot index counted in entry lengths from ht_base."""
    offset, rem = divmod(slot[0] - suite.ht_base, suite.entry_len)
    assert rem == 0 and offset >= 0 and slot[1] - slot[0] == suite.entry_len
    return offset


def table_of(g):
    return (g + 1).bit_length() - 1


def assert_own_table_slots(suite, slots, position_keys):
    """Each entry sits at its key's slot, pkey mod 2^j, of some table j."""
    for slot, pkey in zip(slots, position_keys):
        g = global_slot(suite, slot)
        j = table_of(g)
        assert g == (1 << j) - 1 + pkey % (1 << j)


def blocked_slots(hdr, suite):
    """Global slots of the suite holding any byte already occupied."""
    ep, base = suite.entry_len, suite.ht_base
    return {
        g for g in range(len(hdr.occupied) // ep + 1)
        if any(hdr.occupied[base + g * ep : base + (g + 1) * ep])
    }


class TestReservePubkeys:
    def test_single_suite_primary_at_zero(self, registry):
        for alias in "ABCDEF":
            hdr = HeaderLayout()
            pos = hdr.reserve_pubkeys(suites_by_alias(registry, alias))
            assert pos[registry.by_alias(alias).suite_id] == 0

    def test_a_then_b(self, registry):
        hdr = HeaderLayout()
        pos = hdr.reserve_pubkeys(suites_by_alias(registry, "A", "B"))
        assert pos[registry.by_alias("A").suite_id] == 0
        assert pos[registry.by_alias("B").suite_id] == 64

    def test_full_chain(self, registry):
        hdr = HeaderLayout()
        pos = hdr.reserve_pubkeys(list(registry))
        got = {registry.by_id(sid).alias: p for sid, p in pos.items()}
        assert got == {"A": 0, "B": 64, "C": 96, "D": 160, "E": 192, "F": 256, "pw": 288}

    def test_non_canonical_order_rejected(self, registry):
        hdr = HeaderLayout()
        with pytest.raises(ValueError):
            hdr.reserve_pubkeys(suites_by_alias(registry, "B", "A"))

    def test_every_subset_placeable(self, registry):
        # Well-designed position sets: any suite subset coexists in a blob.
        all_suites = list(registry)
        for n in range(1, len(all_suites) + 1):
            for combo in itertools.combinations(all_suites, n):
                hdr = HeaderLayout()
                pos = hdr.reserve_pubkeys(list(combo))
                assert len(pos) == n

    def test_primaries_never_overlap(self, registry):
        hdr = HeaderLayout()
        hdr.reserve_pubkeys(list(registry))
        ranges = sorted(
            (p, p + registry.by_id(sid).encoded_key_len)
            for sid, p in hdr.plan.pubkey_pos.items()
        )
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 <= a2


class TestPlaceEntryPoints:
    def test_single_recipient_suite_b(self, registry):
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        slots = hdr.place_entry_points(b, [1234], seeded_rng(1))
        assert slots == [(32, 32 + b.entry_len)]

    def test_forced_collision_takes_lowest_last_slot(self, registry):
        # Both keys want the size-1 table; greedy gives 10 slot 0 and 11
        # slot 2 (table 1, index 1), but 10 fits table 1's index 0 instead.
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        slots = hdr.place_entry_points(b, [10, 11], seeded_rng(2))
        assert_own_table_slots(b, slots, [10, 11])
        last = max(global_slot(b, s) for s in slots)
        assert last == min_max_last_slot([10, 11], set()) == 1

    def test_same_position_key_gets_distinct_slots(self, registry):
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        slots = hdr.place_entry_points(b, [7, 7, 7], seeded_rng(3))
        assert len(set(slots)) == 3

    def test_blocked_first_table_moves_on(self, registry):
        # With two suites, the second suite's size-1 table sits under the
        # first suite's key, so its first entry lands in the next table.
        a, b = suites_by_alias(registry, "A", "B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([a, b])
        (slot,) = hdr.place_entry_points(b, [0], seeded_rng(4))
        ep = b.entry_len
        assert slot[0] >= 32 + ep  # beyond table 0

    def test_slot_count_matches_recipients(self, registry):
        b = registry.by_alias("B")
        rng = seeded_rng(5)
        for r in (1, 3, 10, 100):
            hdr = HeaderLayout()
            hdr.reserve_pubkeys([b])
            pkeys = [int.from_bytes(rng.randbytes(8), "big") for _ in range(r)]
            slots = hdr.place_entry_points(b, pkeys, rng)
            assert len(slots) == r
            assert len(set(slots)) == r

    def test_expected_tables_logarithmic(self, registry):
        b = registry.by_alias("B")
        rng = seeded_rng(6)
        ep = b.entry_len
        for r in (10, 100, 1000):
            hdr = HeaderLayout()
            hdr.reserve_pubkeys([b])
            pkeys = [int.from_bytes(rng.randbytes(8), "big") for _ in range(r)]
            slots = hdr.place_entry_points(b, pkeys, rng)
            last_end = max(end for _, end in slots)
            tables = 0
            span = 32
            while span < last_end:
                span += (1 << tables) * ep
                tables += 1
            assert tables <= r.bit_length() + 3

    def test_slots_never_overlap_anything(self, registry):
        rng = seeded_rng(7)
        suites = suites_by_alias(registry, "A", "B", "D")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys(suites)
        for s in suites:
            hdr.place_entry_points(
                s, [int.from_bytes(rng.randbytes(8), "big") for _ in range(20)], rng
            )
        ranges = sorted(
            [(p, p + registry.by_id(sid).encoded_key_len)
             for sid, p in hdr.plan.pubkey_pos.items()]
            + [slot for entry in hdr.plan.suites for slot in entry["slots"]]
        )
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 <= a2


class TestMinMaxPlacement:
    @settings(max_examples=300, deadline=None)
    @given(
        keys=st.lists(
            st.one_of(st.integers(0, 15), st.integers(0, 2**256 - 1)),
            min_size=1, max_size=7,
        ),
        a_keys=st.one_of(
            st.none(), st.lists(st.integers(0, 15), min_size=0, max_size=4)
        ),
    )
    def test_lowest_last_slot(self, registry, keys, a_keys):
        # With suite A first, its primary and its 64-byte entries (from
        # 64 + 64g) straddle pairs of B's slots (from 32 + 64g).
        a, b = suites_by_alias(registry, "A", "B")
        hdr = HeaderLayout()
        if a_keys is None:
            hdr.reserve_pubkeys([b])
        else:
            hdr.reserve_pubkeys([a, b])
            hdr.place_entry_points(a, a_keys, seeded_rng(40))
        before = bytes(hdr.occupied)
        blocked = blocked_slots(hdr, b)
        slots = hdr.place_entry_points(b, keys, seeded_rng(41))
        assert len(slots) == len(keys)
        assert len(set(slots)) == len(keys)
        for start, end in slots:
            assert not any(before[start:end])
        assert_own_table_slots(b, slots, keys)
        last = max(global_slot(b, s) for s in slots)
        assert last == min_max_last_slot(keys, blocked)
        assert last <= max(greedy_placement(keys, blocked))

    def test_rng_one_entry_draw_per_key_in_order(self, registry):
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        keys = [10, 11, 10, 3]
        slots = hdr.place_entry_points(b, keys, seeded_rng(42))
        draws = seeded_rng(42)
        for start, end in slots:
            assert bytes(hdr.content[start:end]) == draws.randbytes(b.entry_len)

    def test_members_decode_at_their_table(self, registry):
        # 300 suite-B recipients: each member opens its entry on trial
        # j + 1, where j is the table the encoder put it in.
        b = registry.by_alias("B")
        rng = seeded_rng(b"min-max-300")
        kps = [keygen(b, rng) for _ in range(300)]
        recipients = [Recipient.public_key(b, kp.pk_encoded) for kp in kps]
        blob, report = encode_detailed(recipients, b"tables", rng)
        (entry,) = report.suites
        tau = xor_extract(blob, b)
        keys = []
        for kp, slot in zip(kps, entry["slots"]):
            ident = Identity(b, secret_key=kp.sk)
            out, stats = decode(blob, ident)
            assert out == b"tables"
            assert stats.trial_count == table_of(global_slot(b, slot)) + 1
            keys.append(derive_entry_keys(decap(b, ident.native_key, tau), b)[1])
        assert_own_table_slots(b, entry["slots"], keys)
        last = max(global_slot(b, s) for s in entry["slots"])
        assert last <= max(greedy_placement(keys, set()))


class TestFillRandom:
    def test_fully_reserved_unchanged(self, registry):
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        hdr.place_entry_points(b, [0], seeded_rng(8))
        before = bytes(hdr.content)
        hdr.fill_random(seeded_rng(9))
        assert bytes(hdr.content) == before  # no free byte below the end

    def test_gap_filled_reserved_untouched(self, registry):
        a, b = suites_by_alias(registry, "A", "B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([a, b])  # gap beyond B's key until entries arrive
        hdr.place_entry_points(b, [1], seeded_rng(10))  # lands past table 0
        free = [i for i in range(hdr.end) if not hdr.occupied[i]]
        assert free
        before = bytes(hdr.content)
        hdr.fill_random(seeded_rng(11))
        after = bytes(hdr.content)
        for i in range(hdr.end):
            if i in set(free):
                continue
            assert before[i] == after[i]

    def test_no_free_bytes_after_fill(self, registry):
        rng = seeded_rng(26)
        hdr = HeaderLayout()
        hdr.reserve_pubkeys(suites_by_alias(registry, "A", "B", "E"))
        hdr.place_entry_points(registry.by_alias("B"), [3, 9, 27], rng)
        hdr.fill_random(rng)
        assert all(hdr.occupied[i] for i in range(hdr.end))

    def test_different_rng_only_changes_gaps(self, registry):
        a, b = suites_by_alias(registry, "A", "B")

        def build(seed):
            hdr = HeaderLayout()
            hdr.reserve_pubkeys([a, b])
            slots = hdr.place_entry_points(b, [1], seeded_rng(0))
            hdr.write_entry(slots[0], b"\xaa" * b.entry_len)
            free = [i for i in range(hdr.end) if not hdr.occupied[i]]
            hdr.fill_random(seeded_rng(seed))
            return bytes(hdr.content), free

        c1, free1 = build(100)
        c2, free2 = build(200)
        assert free1 == free2
        gaps = set(free1)
        assert any(c1[i] != c2[i] for i in gaps)
        assert all(c1[i] == c2[i] for i in range(len(c1)) if i not in gaps)


class TestFinalizeLengths:
    def mac_clear_oracle(self, registry, start, mac_len):
        """First permitted length >= start whose tag range avoids every
        registered key position; independent scan."""
        n = start
        while True:
            while not permitted_length(n):
                n += 1
            mac_pos = n - mac_len
            clash = False
            for suite in registry:
                for p in suite.allowed_positions:
                    if p < n and p + suite.encoded_key_len > mac_pos:
                        clash = True
            if not clash:
                return n
            n += 1

    def test_example_header96_payload100(self, registry):
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        hdr.place_entry_points(b, [0], seeded_rng(12))
        hdr.fill_random(seeded_rng(13))
        assert hdr.end == 96
        plan = hdr.finalize_lengths(100)
        want = self.mac_clear_oracle(registry, 96 + 100 + 32, 32)
        assert plan.purb_len == want == 352
        assert plan.mac_pos == plan.purb_len - 32
        assert plan.payload_start == 96
        assert plan.payload_end == 196

    def test_empty_payload_ok(self, registry):
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        hdr.place_entry_points(b, [0], seeded_rng(14))
        hdr.fill_random(seeded_rng(15))
        plan = hdr.finalize_lengths(0)
        assert plan.purb_len >= hdr.end + 32
        assert plan.payload_start == plan.payload_end

    @pytest.mark.parametrize("payload_len", [0, 1, 100, 5000, 123456])
    def test_purb_len_always_permitted(self, registry, payload_len):
        b = registry.by_alias("B")
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([b])
        hdr.place_entry_points(b, [3], seeded_rng(16))
        hdr.fill_random(seeded_rng(17))
        plan = hdr.finalize_lengths(payload_len)
        assert permitted_length(plan.purb_len)
        assert plan.purb_len == self.mac_clear_oracle(
            registry, hdr.end + payload_len + 32, 32
        )

    def test_requires_fill_first(self, registry):
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([registry.by_alias("B")])
        with pytest.raises(ValueError):
            hdr.finalize_lengths(10)

    def test_mac_range_disjoint_from_positions(self, registry):
        rng = seeded_rng(18)
        for payload_len in (0, 10, 200, 4000):
            hdr = HeaderLayout()
            hdr.reserve_pubkeys(list(registry))
            hdr.fill_random(rng)
            plan = hdr.finalize_lengths(payload_len)
            for suite in registry:
                for p in suite.allowed_positions:
                    if p < plan.purb_len:
                        assert not (
                            p < plan.purb_len
                            and p + suite.encoded_key_len > plan.mac_pos
                        )


class TestXorCoding:
    def test_single_position_in_range_stores_verbatim(self, registry):
        b = registry.by_alias("B")
        blob = bytearray(seeded_rng(19).randbytes(80))  # 80 < 96: only offset 0 fits
        assert in_range_positions(b, 80) == [0]
        tau = seeded_rng(20).randbytes(32)
        xor_encode(blob, b, tau, 0)
        assert bytes(blob[0:32]) == tau
        assert xor_extract(bytes(blob), b) == tau

    def test_two_positions_xor(self, registry):
        b = registry.by_alias("B")
        rng = seeded_rng(21)
        blob = bytearray(rng.randbytes(96))
        tau = rng.randbytes(32)
        other = bytes(blob[64:96])
        xor_encode(blob, b, tau, 0)
        assert bytes(blob[0:32]) == bytes(x ^ y for x, y in zip(tau, other))
        assert xor_extract(bytes(blob), b) == tau

    def test_primary_not_at_zero(self, registry):
        b = registry.by_alias("B")
        rng = seeded_rng(22)
        blob = bytearray(rng.randbytes(128))
        tau = rng.randbytes(32)
        xor_encode(blob, b, tau, 64)
        assert xor_extract(bytes(blob), b) == tau

    def test_roundtrip_fuzz(self, registry):
        rng = seeded_rng(23)
        suites = list(registry)
        for _ in range(200):
            suite = suites[rng.randbytes(1)[0] % len(suites)]
            size = suite.encoded_key_len + rng.randbytes(2)[0] * 3
            blob = bytearray(rng.randbytes(size))
            tau = rng.randbytes(suite.encoded_key_len)
            candidates = in_range_positions(suite, size)
            primary = candidates[rng.randbytes(1)[0] % len(candidates)]
            xor_encode(blob, suite, tau, primary)
            assert xor_extract(bytes(blob), suite) == tau

    @pytest.mark.parametrize("kind", ["bytes", "bytearray", "memoryview"])
    def test_extract_matches_byte_loop_on_real_blobs(self, registry, keypairs, kind):
        # One recipient and a short header, so a suite's later key
        # positions fall inside the payload.
        wrap = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}[kind]
        in_payload = 0
        for suite in registry:
            if suite.alias == "pw":
                recipient = Recipient.password(suite, b"xor")
            else:
                pk = keypairs[suite.alias][0].pk_encoded
                recipient = Recipient.public_key(suite, pk)
            rng = seeded_rng(b"xor-" + suite.alias.encode())
            blob, report = encode_detailed([recipient], bytes(400), rng)
            positions = in_range_positions(suite, len(blob))
            in_payload += sum(
                report.payload_start <= p < report.payload_end for p in positions
            )
            want = xor_ranges_bytewise(blob, positions, suite.encoded_key_len)
            assert want == report.suites[0]["tau"]
            assert xor_extract(wrap(blob), suite) == want
        assert in_payload >= 5  # D, E, F and pw reach into the payload

    @pytest.mark.parametrize("kind", ["bytearray", "memoryview"])
    def test_encode_matches_byte_loop(self, registry, kind):
        rng = seeded_rng(26)
        for suite in registry:
            klen = suite.encoded_key_len
            for primary in in_range_positions(suite, 400):
                before = rng.randbytes(400)
                tau = rng.randbytes(klen)
                buf = bytearray(before)
                target = buf if kind == "bytearray" else memoryview(buf)
                xor_encode(target, suite, tau, primary)
                others = [p for p in in_range_positions(suite, 400) if p != primary]
                mask = xor_ranges_bytewise(before, others, klen)
                assert bytes(buf[primary : primary + klen]) == bytes(
                    x ^ y for x, y in zip(tau, mask)
                )
                assert buf[:primary] == before[:primary]
                assert buf[primary + klen :] == before[primary + klen :]

    def test_extract_none_when_blob_too_short(self, registry):
        b = registry.by_alias("B")
        assert xor_extract(b"\x00" * 31, b) is None


class TestPlanMetrics:
    @pytest.mark.parametrize("alias", ["A", "B", "pw"])
    def test_compactness_single_recipient(self, registry, alias):
        suite = registry.by_alias(alias)
        hdr = HeaderLayout()
        hdr.reserve_pubkeys([suite])
        hdr.place_entry_points(suite, [0], seeded_rng(24))
        hdr.fill_random(seeded_rng(25))
        plan = hdr.finalize_lengths(10)
        assert plan.header_len == suite.encoded_key_len + suite.entry_len
        assert plan.compactness == 1.0

    def test_deterministic_given_seed(self, registry):
        def build(seed):
            rng = seeded_rng(seed)
            hdr = HeaderLayout()
            hdr.reserve_pubkeys(suites_by_alias(registry, "A", "B"))
            hdr.place_entry_points(registry.by_alias("A"), [5, 6], rng)
            hdr.place_entry_points(registry.by_alias("B"), [7], rng)
            hdr.fill_random(rng)
            hdr.finalize_lengths(64)
            return hdr.build_blob(rng).getvalue()

        assert build(77) == build(77)
        assert build(77) != build(78)
