"""fastcaplint: the FastCap determinism & concurrency lint.

Per-file rules (R1–R5, W0) live in :mod:`fastcaplint.filerules`;
the cross-file passes — R6 determinism taint and R7 lock-order —
run over the symbol index in :mod:`fastcaplint.index`. Entry point:
``fastcaplint.driver.main``, run as ``python3 -m fastcaplint``.
"""

from .driver import main

__all__ = ["main"]
