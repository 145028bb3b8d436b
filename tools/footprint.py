"""Print the package's code footprint: lines of ``src/markovlab`` and the
number of those lines that contain ``isinstance(``.

A refactor that keeps the numbers should shrink both; run it before and
after a change and compare:

    python tools/footprint.py
"""

from __future__ import annotations

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "markovlab"


def main() -> None:
    lines = [ln for path in sorted(PACKAGE.glob("*.py"))
             for ln in path.read_text(encoding="utf-8").splitlines()]
    print(f"lines {len(lines)}")
    print(f"isinstance {sum('isinstance(' in ln for ln in lines)}")


if __name__ == "__main__":
    main()
