"""Find and import the cyclicaut sources of the checkout this benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cyclicaut"


def import_cyclicaut():
    """Import cyclicaut from ``<checkout>/src``, never from an installed copy.

    Exits with status 1 when the checkout holds no cyclicaut sources, so the
    benchmark prints no result without the program it measures.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no cyclicaut sources at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import cyclicaut

    if Path(cyclicaut.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported cyclicaut from {cyclicaut.__file__}, not {PACKAGE}")
    return cyclicaut
