"""Put the package source first on the import path of this process and,
through PYTHONPATH, of the child interpreters some tests start (`python -m
crtkit.cli ...`, `python -c "import crtkit ..."`), so that both import the
crtkit in this tree without an install."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
