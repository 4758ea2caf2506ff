"""Put the benchmark's modules and the library on the import path."""

import sys
from pathlib import Path

STACK = Path(__file__).resolve().parents[1]
for path in (STACK.parents[1] / "src", STACK):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
