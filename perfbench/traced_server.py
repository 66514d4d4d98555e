"""``repro serve`` with the layer wrappers installed.

Run as ``python3 -m perfbench.traced_server [serve flags]``.  It
installs the wrappers, then runs the program's own ``serve`` command
unchanged; after the server has drained on SIGTERM it prints the
recorded spans as one JSON line on stdout, after the readiness line.
"""

from __future__ import annotations

import json
import sys

from perfbench.layers import install_serve
from perfbench.spans import Recorder


def main() -> int:
    recorder = Recorder()
    install_serve(recorder)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *sys.argv[1:]])
    sys.stdout.write(json.dumps(recorder.export()) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
