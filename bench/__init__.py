"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Importing the package puts the checkout's ``src`` directory first on
``sys.path`` so the benchmark always measures the code next to it.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
