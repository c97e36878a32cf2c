"""A traced ``parcyl eval`` process.

    python3 perfbench/cli_child.py SPANS_PATH OP_ID eval --function=U+ ...

Times ``import parcyl``, installs the timing wrappers, runs the CLI's
``main`` with the remaining arguments, and writes its spans to SPANS_PATH
on the way out.  Exit code and output are those of the CLI: an uncaught
exception prints its traceback and exits with 1, as ``python -m`` would.
"""

import sys
import time
import traceback

import tracing


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import parcyl
    import parcyl.cli
    import_s = time.perf_counter() - t0
    tr = tracing.install(tracing.Tracer(), parcyl)
    tr.op = op_id
    code = 0
    try:
        code = parcyl.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        tr.dump(path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
