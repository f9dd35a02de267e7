"""Command-line entry point: ``python3 -m fastcaplint`` with
``tools/lint`` on the path, e.g.

    PYTHONPATH=tools/lint python3 -m fastcaplint --root .
    PYTHONPATH=tools/lint python3 -m fastcaplint --self-test tests/lint
"""

import sys

from .driver import main

sys.exit(main())
