"""Run one ``semishift`` command and report its peak memory.

Usage: ``python3 perfbench/cli_child.py STATS_JSON TRACE ARG...``.  ARGs are
the command's own arguments; TRACE is 1 to install the tracer, else 0.
The report goes to standard output and the exit code is the command's,
as with the ``semishift`` console script, which also calls
``semishift.cli.main``.  STATS_JSON receives the process's peak resident
memory and, when traced, the tracer's totals and spans.
"""

import json
import resource
import sys

from tracer import Tracer


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it started its program.

    ``ru_maxrss`` also counts the parent's memory from before ``exec``,
    so the kernel's ``VmHWM`` for the current program is read instead.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    out_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import semishift.cli

    tracer = Tracer(child=True) if traced else None
    if tracer is not None:
        tracer.install()
    try:
        code = semishift.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        code = exc.code
    finally:
        if tracer is not None:
            tracer.uninstall()
        stats = {"peak_rss_kb": peak_rss_kb(),
                 "trace": tracer.export() if tracer is not None else None}
        with open(out_path, "w") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
