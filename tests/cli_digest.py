"""Fingerprints of the command line's outputs, for comparing two versions of
the package byte for byte.

    PYTHONPATH=src python tests/cli_digest.py [CONFIG ...]

Runs check, validate (with the default samples, and with 2000, which span
many blocks of draws), legendre and simulate (both modes), and
atiyah-expand on configs with an "atiyah" section, through
affgebroid.cli.main in this process on each config, by default every
configs/*.json, tests/fixtures/*.json and bench/broken_*.json, and prints
one JSON line per operation: the argv (config paths relative to the repo
root, the CSV path as OUT), the exit code, and the sha256 of stdout and
stderr (with both paths shown the same way) and of the written file
(null where none was written).  The configs are only read; the CSVs go to
a temporary directory.  Run it on two checkouts and diff the output.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from affgebroid.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = ("configs/*.json", "tests/fixtures/*.json", "bench/broken_*.json")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _record(argv, path, shown, out):
    # one operation, with the config path written as shown and the CSV path
    # as OUT; a CSV it wrote is hashed and removed
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code
    written = None
    if "--out" in argv and os.path.exists(out):
        written = _sha(Path(out).read_bytes())
        os.remove(out)

    def hide(text):
        return text.replace(path, shown).replace(out, "OUT")

    return {
        "argv": [hide(a) for a in argv],
        "exit": code,
        "stdout": _sha(hide(stdout.getvalue()).encode()),
        "stderr": _sha(hide(stderr.getvalue()).encode()),
        "file": written,
    }


def _is_atiyah(path):
    try:
        return "atiyah" in json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return False


def digest(configs):
    """One record per operation on each config path, in order."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        for cfg in configs:
            path = str(Path(cfg).resolve())
            shown = os.path.relpath(path, ROOT) if path.startswith(str(ROOT)) else path
            ops = [["check", path], ["validate", path], ["validate", path, "--samples", "2000"],
                   ["legendre", path]]
            ops += [["simulate", path, "--mode", mode, "--out", out]
                    for mode in ("lagrangian", "hamiltonian")]
            if _is_atiyah(path):
                ops.append(["atiyah-expand", path, "--out", out])
            records += [_record(argv, path, shown, out) for argv in ops]
    return records


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    configs = args or sorted(p for pattern in DEFAULT for p in ROOT.glob(pattern))
    for record in digest(configs):
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
