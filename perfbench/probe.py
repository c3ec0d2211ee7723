"""Set-up probe: run as a script in a fresh interpreter, it prints the
seconds taken to import ``asmc`` and ``asmc.cli`` and to fill the
library's first-call lazy state (the ``_row_moves`` cache for n <= 7 and
the CLI parser).  The benchmark imports ``use_checkout_source`` and
``warm`` from here, so its own process is warmed the same way.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout_source() -> None:
    """Import ``asmc`` from the ``src`` directory next to the benchmark."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def warm() -> None:
    from asmc.cli import build_parser
    from asmc.enumeration import enumerate_asm

    # The permutation walk visits every column-sum state of each order.
    for n in range(1, 8):
        for _ in enumerate_asm(n, s=0):
            pass
    build_parser()


if __name__ == "__main__":
    start = time.perf_counter()
    use_checkout_source()
    import asmc  # noqa: F401
    import asmc.cli  # noqa: F401

    warm()
    print(time.perf_counter() - start)
