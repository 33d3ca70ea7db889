"""``lindscope`` with tracing: ``python3 traced_cli.py TABLE ARGS...``.

Times the fresh import of ``lindscope.cli``, installs the tracer, runs the
CLI on ARGS and writes the import figures and the span table to TABLE as
JSON. The exit status is the CLI's.
"""

import json
import sys

import tracer as tracing


def main() -> int:
    table_path, argv = sys.argv[1], sys.argv[2:]
    import_s, import_modules = tracing.timed_import()
    import lindscope.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return lindscope.cli.main(argv)
    finally:
        with open(table_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"import_s": import_s, "import_modules": import_modules, "table": tracer.table()},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
