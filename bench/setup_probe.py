"""Time one fresh start of the CLI: import pjtdiag.cli, then run one command.

Usage: python3 bench/setup_probe.py SRC_DIR SUBCOMMAND [ARG ...]

Prints one JSON object with ``setup_s`` (seconds from before the import to
the end of the command) and ``exit`` (the command's exit status). The CSV
the command writes is discarded.
"""

import contextlib
import io
import json
import sys
import time


def main() -> None:
    src, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import pjtdiag.cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = pjtdiag.cli.main(argv)
    print(json.dumps({"setup_s": time.perf_counter() - start, "exit": status}))


if __name__ == "__main__":
    main()
