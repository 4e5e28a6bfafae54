"""Rewrite the golden solver outputs under tests/golden/ from the current
code and print what changed as a unified diff.

    python3 scripts/regen_golden.py

The inputs and the way each output is computed are in
tests/golden_cases.py, which TestGolden in tests/test_constructive.py reads
too. Run this after a deliberate output change and review the diff before
committing it; it prints nothing when every file already matches.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden_cases  # noqa: E402


def main() -> int:
    golden_cases.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, new in sorted(golden_cases.current_files().items()):
        path = golden_cases.GOLDEN_DIR / name
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        if old == new:
            continue
        rel = path.relative_to(ROOT).as_posix()
        sys.stdout.writelines(
            difflib.unified_diff(
                old.splitlines(True), new.splitlines(True), f"a/{rel}", f"b/{rel}"
            )
        )
        path.write_text(new, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
