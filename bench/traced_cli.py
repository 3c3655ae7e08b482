"""``geompair`` with counted bit I/O, for the traced benchmark run.

Runs the CLI like the console script does, after wrapping
``BitWriter.write``, ``BitReader.read_bits`` and ``BitReader.read_bit``
with call counters, and writes the counts as JSON to the file named by
the ``BENCH_COUNTS`` environment variable.  The counts are exact, so they
repeat run after run on the same input.
"""

import json
import os
import sys

from geompair import bitio
from geompair.cli import main


def count_calls(cls, name: str, counts: dict[str, int]) -> None:
    method = getattr(cls, name)
    key = f"{cls.__name__}.{name}"
    counts[key] = 0

    def counted(*args):
        counts[key] += 1
        return method(*args)

    setattr(cls, name, counted)


if __name__ == "__main__":
    counts: dict[str, int] = {}
    count_calls(bitio.BitWriter, "write", counts)
    count_calls(bitio.BitReader, "read_bits", counts)
    count_calls(bitio.BitReader, "read_bit", counts)
    code = main()
    with open(os.environ["BENCH_COUNTS"], "w") as fh:
        json.dump(counts, fh)
    sys.exit(code)
