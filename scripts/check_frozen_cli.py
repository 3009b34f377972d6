"""Run the frozen CLI argvs of tests/test_cli.py in-process and print the
sha256 of each command's stdout, with `ok` where it equals the recorded
digest. Stdlib only, so it runs on an interpreter without pytest:

    python scripts/check_frozen_cli.py

It imports `idak` from this checkout's src/. Every output line is the
same on every supported interpreter, so two runs can be compared with
diff; the interpreter's version goes to stderr. Exits 1 on any mismatch.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_CLI = ROOT / "tests" / "test_cli.py"


def frozen_digests() -> dict[tuple[str, ...], str]:
    """FROZEN_DIGESTS as test_cli.py records it, read without importing
    the test module (which needs pytest)."""
    for node in ast.parse(TEST_CLI.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "FROZEN_DIGESTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no FROZEN_DIGESTS assignment in {TEST_CLI}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from idak.cli import main as cli_main

    digests = frozen_digests()
    mismatches = 0
    for key, want in digests.items():
        *argv, variant = key
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli_main([*argv, "--variant", variant])
        got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        ok = status == 0 and got == want
        mismatches += not ok
        print(got, "ok" if ok else "MISMATCH", " ".join(key))
    matched = len(digests) - mismatches
    print(f"python {sys.version.split()[0]}: {matched} of {len(digests)} match", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
