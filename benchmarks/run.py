"""Reference benchmark of ``emacprof profile``.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run. With no arguments every workload runs in both modes.
The last line of the output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when the
correctness gate failed. Times are at nominal host speed (``reference.py``).
``--record-golden`` re-records the gate's reference
values (only after a change that is meant to alter simulated results).

The program is imported from the checkout's ``src`` directory; nothing needs
installing.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "emacprof" / "__init__.py").is_file():
        sys.exit(f"error: no emacprof package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    from harness import main

    sys.exit(main())
