"""One CLI invocation in a fresh interpreter, as a ``gofboot`` user pays it.

Usage: child.py ROOT SPANS_PATH -- CLI_ARGV...

Imports ``gofboot.cli`` from ROOT/src, times the import (set-up) and one
``main(argv)`` call, and prints one JSON line: exit code, CLI stdout, wall
and CPU seconds of the call, and peak RSS. CPU and RSS include pool workers,
which the CLI has joined before ``main`` returns. When SPANS_PATH is not
``-``, every call between gofboot modules is traced and the spans are
written there after the call.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    root, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py ROOT SPANS_PATH -- CLI_ARGV...")
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import gofboot.cli

    setup_s = time.perf_counter() - t0
    if not Path(gofboot.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {gofboot.cli.__file__}, not the copy under {src}")

    tracer = None
    if spans_path != "-":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    try:
        cpu0, t0 = _cpu(), time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = gofboot.cli.main(argv)
        wall_s, cpu_s = time.perf_counter() - t0, _cpu() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(spans_path)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(
        json.dumps(
            {
                "code": code,
                "stdout": out.getvalue(),
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": rss_kb / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
