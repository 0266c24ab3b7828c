"""The public-results contract: every command of README's "Command line"
block, run in-process on the shipped configs, prints and writes the same
bytes and exits with the same code as the committed table says.

The table (golden_cli.json, beside this file) holds the SHA-256 of each
command's stdout and of every file it writes. It was generated on a 2-core
x86-64 Xeon with Python 3.11.7 and numpy 2.4.6; no other machine has
confirmed it yet. `sense` fits its delay peak through np.polyfit, which is
LAPACK, and numpy's SIMD exp and log may round differently on another CPU,
so a mismatch there on new hardware says which build differs, not that the
code changed. A change that moves a hash on purpose regenerates the table
(`PYTHONPATH=src python3 tests/test_golden.py`) and states why in
CHANGES.md.
"""

import hashlib
import io
import json
import os
import shlex
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from snslab.cli import entry

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_cli.json"


def readme_commands() -> list[str]:
    """The command lines of README's "Command line" block, in order."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.strip() for line in block.splitlines() if line.strip()]


def run_in(cwd: Path, command: str) -> dict:
    """Run one README command in cwd, a copy of configs/ beside it, and hash what it leaves."""
    shutil.copytree(ROOT / "configs", cwd / "configs")
    before = set(cwd.rglob("*"))
    argv = shlex.split(command)
    assert argv[0] == "snslab"
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = entry(argv[1:])
    finally:
        os.chdir(old)
    written = sorted(p for p in set(cwd.rglob("*")) - before if p.is_file())
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "files": {p.relative_to(cwd).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in written},
    }


def test_the_table_covers_every_readme_command():
    assert list(json.loads(TABLE.read_text())) == readme_commands()
    assert len(readme_commands()) == 8


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_prints_and_writes_the_frozen_bytes(tmp_path, command):
    assert run_in(tmp_path, command) == json.loads(TABLE.read_text())[command]


if __name__ == "__main__":
    import tempfile

    table = {}
    for command in readme_commands():
        with tempfile.TemporaryDirectory() as tmp:
            table[command] = run_in(Path(tmp), command)
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(table)} commands to {TABLE}\n")
