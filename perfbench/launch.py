"""Run one graphon-mpnn CLI command in this process, for the benchmark.

    python launch.py --src SRC --timing FILE [--trace FILE] [--stop-after-setup] -- ARGS...

Imports the package from SRC (and refuses one found anywhere else), marks
the moment set-up ends, runs ``graphon_mpnn.cli.main(ARGS)`` and exits with
its code. Set-up ends when the first ``SbmSpec.require_valid`` call returns:
every subcommand the benchmark runs parses its config and then validates
the block model before any sampling or message passing. The moment is a
``time.monotonic()`` reading, which on Linux shares its clock with the
benchmark process. With ``--stop-after-setup`` the process exits there.
With ``--trace`` the calls into the package are recorded as spans (see
``tracing.py``) and written to FILE when the command ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--timing", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--stop-after-setup", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import graphon_mpnn
    from graphon_mpnn import cli, sbm

    if not os.path.abspath(graphon_mpnn.__file__).startswith(src + os.sep):
        print(f"graphon_mpnn imported from {graphon_mpnn.__file__}, not {src}",
              file=sys.stderr)
        return 70

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install("graphon_mpnn")

    timing = {}
    require_valid = sbm.SbmSpec.require_valid

    def mark_setup(self, *a, **k):
        result = require_valid(self, *a, **k)
        if "setup_done" not in timing:
            timing["setup_done"] = time.monotonic()
            if args.stop_after_setup:
                raise SystemExit(0)
        return result

    sbm.SbmSpec.require_valid = mark_setup
    try:
        return cli.main(cli_args)
    finally:
        with open(args.timing, "w") as fh:
            json.dump(timing, fh)
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
