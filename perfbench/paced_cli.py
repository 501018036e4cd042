"""The circlelens command line, with the host's pace sampled while it runs.

    python3 perfbench/paced_cli.py PACE_JSON lenses SCENE --k K

Imports circlelens.cli and runs its main() on the remaining arguments under
pace.Pace, then writes the pace report to PACE_JSON, also when the command
line fails.  Standard output and the exit code are the command line's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from pace import Pace


def main() -> int:
    pace = Pace()
    try:
        with pace:
            from circlelens.cli import main as cli_main
            code = cli_main(sys.argv[2:])
            sys.stdout.flush()
    finally:
        Path(sys.argv[1]).write_text(json.dumps(pace.report()))
    return code


if __name__ == "__main__":
    sys.exit(main())
