"""Run one lccsub command in a fresh process, as the `lccsub` script would.

    python perfbench/launch.py --meta META.json [--trace SPANS.json --run-id ID] -- [ARGV...]

Times `import lccsub.cli` (the command's set-up), optionally installs the
outside-in tracer, calls `lccsub.cli.main(ARGV)` and exits with its code.
With no ARGV it only imports: a set-up probe.
The import time and exit code go to META.json; with --trace the spans go
to SPANS.json when the command ends.
"""

import json
import sys
import time


def write_meta(path, import_s, rc):
    with open(path, "w") as handle:
        json.dump({"import_s": import_s, "rc": rc}, handle)


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    opts = dict(zip(args[:sep:2], args[1:sep:2]))
    argv = args[sep + 1:]

    t0 = time.perf_counter()
    import lccsub.cli

    import_s = time.perf_counter() - t0
    write_meta(opts["--meta"], import_s, None)  # kept if the command is killed
    tracer = None
    if "--trace" in opts:
        from tracer import Tracer

        tracer = Tracer(opts["--run-id"])
        tracer.install()
    rc = None if argv else 0
    try:
        if argv:
            rc = lccsub.cli.main(argv)
    finally:
        write_meta(opts["--meta"], import_s, rc)
        if tracer is not None:
            tracer.dump(opts["--trace"])
    return rc


if __name__ == "__main__":
    sys.exit(main())
