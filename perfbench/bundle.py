"""Write one foragesim bundle in a fresh interpreter, optionally traced.

    python3 -I perfbench/bundle.py CONFIG OUTPUT [--event-log] [--trace TRACE_JSON]

Runs the program the way ``foragesim --config CONFIG --output OUTPUT`` does,
through ``foragesim.cli.main``, importing the package from ``src/`` of this
checkout. The last line of standard output is a JSON object with the CLI's
exit code and this process's peak resident memory and CPU time (self plus
children). With ``--trace`` the tracer wraps the layers first and writes its
spans and counts to TRACE_JSON after the bundle.
"""

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("output")
    parser.add_argument("--event-log", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from foragesim import cli

    cli_args = ["--config", args.config, "--output", args.output]
    if args.event_log:
        cli_args.append("--event-log")
    # The root span covers config load, the replications and the bundle write.
    rc = (tracer.spanned("cli.main", cli.main) if tracer else cli.main)(cli_args)
    if tracer is not None:
        tracer.write(args.trace)

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(
        json.dumps(
            {
                "rc": rc,
                # ru_maxrss is in KiB on Linux.
                "peak_rss_mb": (own.ru_maxrss + children.ru_maxrss) / 1024,
                "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
            }
        )
    )
    return rc


if __name__ == "__main__":
    sys.exit(main())
