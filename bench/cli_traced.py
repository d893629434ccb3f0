"""Run the quasizero CLI with span recording; write the spans to a file.

Usage: python bench/cli_traced.py OUT.json SUBCOMMAND [ARGS...]

The worker of a traced cli run starts this in place of ``python -m
quasizero`` and adopts the spans from OUT.json under the operation's span.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import quasizero  # noqa: E402
import quasizero.cli  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    rec, _ = spans.install(quasizero)
    try:
        return quasizero.cli.main(argv)
    finally:
        out.write_text(json.dumps(rec.dump()))


if __name__ == "__main__":
    sys.exit(main())
