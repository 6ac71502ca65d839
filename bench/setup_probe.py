"""Set-up probe: a fresh interpreter does what a run does before its first
flow, then prints ``time.monotonic()``.  The parent subtracts the moment it
started the process, so the figure covers interpreter start, imports, config
load and detector or pipeline construction.

    python3 bench/setup_probe.py chain CONFIG SEED
    python3 bench/setup_probe.py detector RADIUS K SPAN
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from botguard import cli, stream  # noqa: E402

if __name__ == "__main__":
    kind, *args = sys.argv[1:]
    if kind == "chain":
        cli.build_pipeline(cli.load_run_config(args[0], seed_override=int(args[1])))
    elif kind == "detector":
        stream.Detector(stream.DetectorParams(
            radius=float(args[0]), neighbor_threshold=int(args[1]),
            window_span=float(args[2])))
    else:
        sys.exit(f"unknown probe kind {kind!r}")
    print(time.monotonic())
