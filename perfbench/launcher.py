"""Run one weylflags CLI request, optionally traced.

    python3 perfbench/launcher.py [--trace-out PATH REQUEST_ID] <cli args...>

Untraced, this is exactly `weylflags <cli args>`.  Traced, it first wraps
the library's public functions (see tracing.py), then calls
``weylflags.cli.main`` and, once it returns, writes the spans to PATH.
Either way every request starts a fresh interpreter, so caches start cold.
"""

import sys


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-out"]:
        from weylflags.cli import main as cli_main

        return cli_main(argv)
    out_path, request, argv = argv[1], int(argv[2]), argv[3:]
    import tracing

    rec = tracing.Recorder(request)
    tracing.install(rec)
    from weylflags import cli

    try:
        return cli.main(argv)
    finally:
        hits, misses = tracing.fforacle_cache_counts()()
        sys.stdout.flush()
        tracing.write_dump(out_path, rec, {"cache": {"hits": hits, "misses": misses}})


if __name__ == "__main__":
    sys.exit(main())
