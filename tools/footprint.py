"""Print the package's code footprint: lines of ``src/markovlab``, the
number of those lines that contain ``isinstance(``, and the lines of each
module, so that code moved between modules reads as a move, not a cut.

A refactor that keeps the numbers should shrink the totals; run it before
and after a change and compare:

    python tools/footprint.py
"""

from __future__ import annotations

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "markovlab"


def main() -> None:
    modules = {path.name: path.read_text(encoding="utf-8").splitlines()
               for path in sorted(PACKAGE.glob("*.py"))}
    lines = [ln for module in modules.values() for ln in module]
    print(f"lines {len(lines)}")
    print(f"isinstance {sum('isinstance(' in ln for ln in lines)}")
    for name, module in modules.items():
        print(f"  {name} {len(module)}")


if __name__ == "__main__":
    main()
