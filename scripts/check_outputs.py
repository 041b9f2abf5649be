#!/usr/bin/env python3
"""Check the files a corpus sweep writes.

Runs `cdc5 sweep --workers 1` over tests/data/snarks.g6 into a temporary
directory, in process. Every file it writes (each certificate and
report.json) must equal json.dumps(json.loads(text), indent=2) + "\\n" byte
for byte, and verify_certificate must accept every certificate. It prints
the counts and the run time, and exits with status 1 on any mismatch.

Run it from the root of a source checkout:

    python3 scripts/check_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from cdc5 import verify_certificate  # noqa: E402
from cdc5.cli import main as cdc5_main  # noqa: E402


def main() -> int:
    started = time.monotonic()
    problems = []
    with tempfile.TemporaryDirectory() as out:
        corpus = str(ROOT / "tests" / "data" / "snarks.g6")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cdc5_main(["sweep", "--graph", corpus, "--out", out, "--workers", "1"])
        if code != 0:
            problems.append(f"sweep exited with status {code}")
        paths = sorted(Path(out).iterdir())
        certificates = 0
        for path in paths:
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            if text != json.dumps(doc, indent=2) + "\n":
                problems.append(f"{path.name}: not the json.dumps(..., indent=2) text")
            if path.name.startswith("cert_"):
                certificates += 1
                problems += [f"{path.name}: {p}" for p in verify_certificate(doc)]
    elapsed = time.monotonic() - started
    print(f"files: {len(paths)}, certificates: {certificates}")
    print(f"problems: {len(problems)}, time: {elapsed:.1f} s")
    for line in problems:
        print(f"  {line}")
    return 1 if problems or not certificates else 0


if __name__ == "__main__":
    sys.exit(main())
