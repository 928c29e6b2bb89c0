"""The README's quick starts run as written, and the package root
exports the names they and the benchmark import, and no others."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import purb

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def fenced_block(heading: str, lang: str) -> str:
    """The first block in lang under the given level-2 heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    code = fenced_block("Library quick start", "python")
    assert "encode_detailed" in code and "decode" in code
    exec(compile(code, str(README), "exec"), {})


def test_cli_quick_start_runs(tmp_path):
    block = fenced_block("CLI quick start", "sh")
    report = os.urandom(3000)
    (tmp_path / "report.pdf").write_bytes(report)
    (tmp_path / "sizes.txt").write_text("9\n100\n513\n4000\n")
    # `purb` is the installed console script; here it is the module, run
    # by this interpreter on the checkout's sources.
    script = (
        f"purb() {{ {shlex.quote(sys.executable)} -m purb.cli \"$@\"; }}\n"
        "set -e\n" + block
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        ["bash", "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # The block decodes over report.pdf, so compare with the saved input.
    assert (tmp_path / "report.pdf").read_bytes() == report
    assert (tmp_path / "report2.pdf").read_bytes() == report
    assert "10 (+1 bytes, +11.11%)" in done.stdout.splitlines()


def test_package_root_exports():
    assert sorted(purb.__all__) == [
        "DecodeError", "EncodeReport", "Identity", "KeyPair", "PadSpec",
        "Recipient", "decode", "default_registry", "encode_detailed",
        "keygen", "seeded_rng", "system_rng",
    ]
    assert all(hasattr(purb, name) for name in purb.__all__)
