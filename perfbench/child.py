"""Fresh-interpreter helper for the benchmark.

    child.py import                 print the seconds `import symcd.cli` took
    child.py main OUT ARGV_JSON     run `symcd.cli.main(ARGV)` as the `symcd`
                                    command would, traced unless OUT is "-",
                                    and write the trace summary to OUT

The import is timed first thing, before anything else is loaded.
"""

import sys
import time

_start = time.perf_counter()
import symcd.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start


def exit_code(exc: SystemExit) -> int:
    """The process exit status a SystemExit would produce."""
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    if sys.argv[1] == "import":
        print(repr(IMPORT_S))
        return 0
    import json
    import traceback

    from tracer import Tracer

    out_path, argv = sys.argv[2], json.loads(sys.argv[3])
    tracer = Tracer()
    if out_path != "-":
        tracer.install()
    try:
        code = symcd.cli.main(argv)
    except SystemExit as exc:
        code = exit_code(exc)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        restored = tracer.uninstall()
    sys.stdout.flush()
    if out_path == "-":
        return code
    with open(out_path, "w") as handle:
        json.dump(
            {"import_s": IMPORT_S, "restored": restored, "metrics": tracer.metrics(), "spans": tracer.spans},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
