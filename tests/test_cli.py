import json

import pytest

from purb import cli
from purb.cli import main
from purb.suites import read_public_key, read_secret_key


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def keyfiles(tmp_path):
    root = str(tmp_path / "alice")
    assert run("keygen", "--suite", "B", "--out", root, "--seed", "aa") == 0
    return root + ".sk", root + ".pk"


class TestKeygen:
    def test_suite_b_lengths(self, tmp_path, capsys):
        prefix = str(tmp_path / "k")
        assert run("keygen", "--suite", "B", "--out", prefix) == 0
        assert len(read_secret_key(prefix + ".sk")) == 32
        assert len(read_public_key(prefix + ".pk")) == 32
        assert "B" in capsys.readouterr().out

    def test_suite_a_lengths(self, tmp_path):
        prefix = str(tmp_path / "k")
        assert run("keygen", "--suite", "A", "--out", prefix) == 0
        assert len(read_public_key(prefix + ".pk")) == 64

    def test_missing_suite_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("keygen", "--out", str(tmp_path / "k"))
        assert info.value.code == 2

    def test_unknown_suite_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("keygen", "--suite", "Z", "--out", str(tmp_path / "k"))
        assert info.value.code == 2

    def test_bad_seed_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("keygen", "--suite", "B", "--out", tmp_path / "k", "--seed", "zz")
        assert info.value.code == 2

    def test_unwritable_path(self, tmp_path, capsys):
        assert run("keygen", "--suite", "B", "--out", str(tmp_path / "no" / "k")) == 2


class TestEncodeDecode:
    def write_recipients(self, tmp_path, pk_path):
        rcpt = tmp_path / "rcpt.json"
        rcpt.write_text(
            json.dumps(
                [
                    {"suite": "B", "pubkey": open(pk_path).read().strip()},
                    {"suite": "pw", "passphrase": "tote-bag"},
                ]
            )
        )
        return str(rcpt)

    def test_roundtrip(self, tmp_path, keyfiles, capsys):
        sk_path, pk_path = keyfiles
        rcpt = self.write_recipients(tmp_path, pk_path)
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"\x01\x02" * 700)
        blob = tmp_path / "msg.purb"
        assert run("encode", "--to", rcpt, "--in", msg, "--out", blob) == 0
        out = capsys.readouterr().out
        assert "bytes total" in out and "compactness" in out

        dec = tmp_path / "dec.bin"
        assert run(
            "decode", "--key", sk_path, "--suite", "B", "--in", blob, "--out", dec,
            "--stats",
        ) == 0
        assert dec.read_bytes() == msg.read_bytes()
        assert "exp_count=1" in capsys.readouterr().out

        dec2 = tmp_path / "dec2.bin"
        assert run(
            "decode", "--passphrase", "tote-bag", "--in", blob, "--out", dec2
        ) == 0
        assert dec2.read_bytes() == msg.read_bytes()

    def test_wrong_key_uniform_failure(self, tmp_path, keyfiles, capsys):
        sk_path, pk_path = keyfiles
        rcpt = self.write_recipients(tmp_path, pk_path)
        msg = tmp_path / "m"
        msg.write_bytes(b"hello")
        blob = tmp_path / "m.purb"
        assert run("encode", "--to", rcpt, "--in", msg, "--out", blob) == 0
        capsys.readouterr()

        evil = str(tmp_path / "evil")
        assert run("keygen", "--suite", "B", "--out", evil, "--seed", "bb") == 0
        capsys.readouterr()
        code = run(
            "decode", "--key", evil + ".sk", "--suite", "B",
            "--in", blob, "--out", tmp_path / "nope",
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "decode failed"

    def test_pad_none_length(self, tmp_path, keyfiles, capsys):
        sk_path, pk_path = keyfiles
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps([{"suite": "B", "pubkey": open(pk_path).read().strip()}]))
        msg = tmp_path / "m"
        payload = b"\x00" * 1000  # large enough that the tag clears all key positions
        msg.write_bytes(payload)
        blob = tmp_path / "m.purb"
        assert run("encode", "--to", rcpt, "--in", msg, "--out", blob, "--pad", "none") == 0
        header = 96
        assert blob.stat().st_size == header + len(payload) + 32

    def encode_with_dummies(self, tmp_path, monkeypatch, alias, key_paths):
        # Dummy public keys are random strings: no key pair is generated.
        def no_keygen(*args):
            raise AssertionError("dummy recipient ran keygen")

        sk_path, pk_path = key_paths
        monkeypatch.setattr(cli, "keygen", no_keygen)
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps([{"suite": alias, "pubkey": read_public_key(pk_path).hex()}]))
        msg = tmp_path / "m"
        msg.write_bytes(b"covered")
        blob = tmp_path / "m.purb"
        assert run(
            "encode", "--to", rcpt, "--in", msg, "--out", blob, "--dummy", "3",
            "--seed", "cc",
        ) == 0
        dec = tmp_path / "d"
        assert run("decode", "--key", sk_path, "--suite", alias, "--in", blob, "--out", dec) == 0
        assert dec.read_bytes() == b"covered"

    def test_dummy_recipients(self, tmp_path, keyfiles, monkeypatch):
        self.encode_with_dummies(tmp_path, monkeypatch, "B", keyfiles)

    def test_dummy_recipients_secp256k1(self, tmp_path, monkeypatch):
        root = str(tmp_path / "alice")
        assert run("keygen", "--suite", "A", "--out", root, "--seed", "aa") == 0
        self.encode_with_dummies(tmp_path, monkeypatch, "A", (root + ".sk", root + ".pk"))

    def test_report_json_blob_map(self, tmp_path, keyfiles, capsys):
        sk_path, pk_path = keyfiles
        rcpt = self.write_recipients(tmp_path, pk_path)
        msg = tmp_path / "m"
        msg.write_bytes(b"mapped" * 50)
        blob, report = tmp_path / "m.purb", tmp_path / "m.json"
        assert run(
            "encode", "--to", rcpt, "--in", msg, "--out", blob, "--dummy", "6",
            "--seed", "dd", "--report-json", report,
        ) == 0
        text = report.read_text()
        assert "tau" not in text
        geo = json.loads(text)
        purb_len = geo["purb_len"]
        assert purb_len == blob.stat().st_size
        assert [s["alias"] for s in geo["suites"]] == ["B", "pw"]
        assert [len(s["entries"]) for s in geo["suites"]] == [7, 1]
        in_header = []
        for suite in geo["suites"]:
            in_header.append(suite["primary"])
            in_header += [e["range"] for e in suite["entries"]]
        assert all(end <= geo["header_len"] for _, end in in_header)
        ranges = sorted(in_header + [geo["payload"], geo["padding"], geo["tag"]])
        assert all(0 <= a <= b <= purb_len for a, b in ranges)
        assert all(b1 <= a2 for (_, b1), (a2, _) in zip(ranges, ranges[1:]))
        assert geo["payload"] == [geo["header_len"], geo["header_len"] + 300]
        assert geo["tag"][1] == purb_len and geo["tag"][1] - geo["tag"][0] == 32

        # The first B entry is the key file's: decoding tries one slot per
        # table, so it opens on trial table + 1.
        capsys.readouterr()
        dec = tmp_path / "d"
        assert run(
            "decode", "--key", sk_path, "--suite", "B", "--in", blob, "--out", dec,
            "--stats",
        ) == 0
        table = geo["suites"][0]["entries"][0]["table"]
        assert f"trial_count={table + 1}\n" in capsys.readouterr().out

    def test_seed_determinism(self, tmp_path, keyfiles):
        sk_path, pk_path = keyfiles
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps([{"suite": "B", "pubkey": open(pk_path).read().strip()}]))
        msg = tmp_path / "m"
        msg.write_bytes(b"same every time")
        b1, b2 = tmp_path / "1.purb", tmp_path / "2.purb"
        assert run("encode", "--to", rcpt, "--in", msg, "--out", b1, "--seed", "0123") == 0
        assert run("encode", "--to", rcpt, "--in", msg, "--out", b2, "--seed", "0123") == 0
        assert b1.read_bytes() == b2.read_bytes()

    def test_bad_seed_usage_error(self, tmp_path, keyfiles):
        sk_path, pk_path = keyfiles
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps([{"suite": "B", "pubkey": open(pk_path).read().strip()}]))
        msg = tmp_path / "m"
        msg.write_bytes(b"x")
        with pytest.raises(SystemExit) as info:
            run("encode", "--to", rcpt, "--in", msg, "--out", tmp_path / "o", "--seed", "zz")
        assert info.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_try_all(self, tmp_path, keyfiles, capsys):
        sk_path, pk_path = keyfiles
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps([{"suite": "B", "pubkey": open(pk_path).read().strip()}]))
        msg = tmp_path / "m"
        msg.write_bytes(b"which suite?")
        blob = tmp_path / "m.purb"
        assert run("encode", "--to", rcpt, "--in", msg, "--out", blob) == 0
        dec = tmp_path / "d"
        assert run("decode", "--key", sk_path, "--try-all", "--in", blob, "--out", dec) == 0
        assert dec.read_bytes() == b"which suite?"

    @pytest.mark.parametrize(
        "suite_args,key",
        [
            (["--suite", "B"], b"\x01" * 31),
            (["--suite", "A"], bytes(32)),
            (["--try-all"], b""),
        ],
        ids=["B-31-bytes", "A-zero-scalar", "try-all-empty"],
    )
    def test_unusable_key_usage_error(self, tmp_path, capsys, suite_args, key):
        sk = tmp_path / "k.sk"
        sk.write_bytes(key)
        blob = tmp_path / "m.purb"
        blob.write_bytes(bytes(256))
        out = tmp_path / "o"
        assert run("decode", "--key", sk, *suite_args, "--in", blob, "--out", out) == 2
        assert "error: key unusable for suite" in capsys.readouterr().err
        assert not out.exists()

    def test_try_all_skips_suites_rejecting_key(self, tmp_path, capsys):
        # 31 bytes are no X25519 scalar but a fine secp256k1 one
        sk = tmp_path / "k.sk"
        sk.write_bytes(b"\x01" * 31)
        blob = tmp_path / "m.purb"
        blob.write_bytes(bytes(256))
        assert run("decode", "--key", sk, "--try-all", "--in", blob, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().out == "decode failed\n"

    def test_empty_recipient_file(self, tmp_path, keyfiles):
        rcpt = tmp_path / "r.json"
        rcpt.write_text("[]")
        msg = tmp_path / "m"
        msg.write_bytes(b"x")
        assert run("encode", "--to", rcpt, "--in", msg, "--out", tmp_path / "o") == 2

    def test_unknown_suite_in_recipient_file(self, tmp_path, capsys):
        rcpt = tmp_path / "r.json"
        rcpt.write_text('[{"suite": "Z", "pubkey": "00"}]')
        msg = tmp_path / "m"
        msg.write_bytes(b"x")
        assert run("encode", "--to", rcpt, "--in", msg, "--out", tmp_path / "o") == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entries,message",
        [
            (["x"], "recipient 0: not a JSON object"),
            ([{"suite": "B", "pubkey": 5}], "recipient 0: 'pubkey' must be a string"),
            ([{"suite": "pw", "passphrase": 7}], "'passphrase' must be a string"),
            ([{"suite": ["B"]}], "recipient 0: 'suite' must be a string"),
        ],
        ids=["not-object", "pubkey-int", "passphrase-int", "suite-list"],
    )
    def test_malformed_recipient_usage_error(self, tmp_path, capsys, entries, message):
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps(entries))
        msg = tmp_path / "m"
        msg.write_bytes(b"x")
        assert run("encode", "--to", rcpt, "--in", msg, "--out", tmp_path / "o") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_dummy_usage_error(self, tmp_path, keyfiles):
        sk_path, pk_path = keyfiles
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps([{"suite": "B", "pubkey": open(pk_path).read().strip()}]))
        msg = tmp_path / "m"
        msg.write_bytes(b"x")
        with pytest.raises(SystemExit) as info:
            run("encode", "--to", rcpt, "--in", msg, "--out", tmp_path / "o", "--dummy", "-3")
        assert info.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_missing_input_files_reported(self, tmp_path, keyfiles, capsys):
        sk_path, pk_path = keyfiles
        rcpt = tmp_path / "r.json"
        rcpt.write_text(json.dumps([{"suite": "B", "pubkey": open(pk_path).read().strip()}]))
        code = run(
            "encode", "--to", rcpt, "--in", tmp_path / "nope", "--out", tmp_path / "o"
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        code = run(
            "decode", "--key", sk_path, "--suite", "B",
            "--in", tmp_path / "nope.purb", "--out", tmp_path / "o",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestPadCommand:
    @pytest.mark.parametrize("length,expect", [(9, "10"), (8, "8"), (1, "1")])
    def test_values(self, capsys, length, expect):
        assert run("pad", "--len", length) == 0
        assert capsys.readouterr().out.split()[0] == expect

    def test_spec_option(self, capsys):
        assert run("pad", "--len", "9", "--spec", "next2") == 0
        assert capsys.readouterr().out.split()[0] == "16"

    def test_overhead_shown(self, capsys):
        assert run("pad", "--len", "9") == 0
        assert "+11.11%" in capsys.readouterr().out

    def test_zero_length(self, capsys):
        assert run("pad", "--len", "0") == 0
        assert capsys.readouterr().out.split()[0] == "0"

    def test_negative_length_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("pad", "--len", "-1")
        assert info.value.code == 2
        assert "length must be >= 0" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        sizes = tmp_path / "sizes.txt"
        sizes.write_text("\n".join(str(s) for s in range(1, 400)))
        out_csv = tmp_path / "rep.csv"
        assert run(
            "analyze", "--sizes", sizes, "--specs", "block:512", "next2", "padme",
            "--csv", out_csv,
        ) == 0
        out = capsys.readouterr().out
        assert "block:512" in out and "padme" in out
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 4  # header + three specs

    def test_bad_file(self, tmp_path):
        sizes = tmp_path / "sizes.txt"
        sizes.write_text("12\nnope\n")
        assert run("analyze", "--sizes", sizes) == 2
