import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark's modules sit next to run.py, the program under src/.
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
