"""Seeded inputs, cold CLI children and the rounds of each workload.

Every operation of a workload is one fresh ``geompair`` child process,
started only after the previous one has exited (a closed loop with one
client), because a command-line user pays the interpreter start, the
imports and the codec build on every run.  The wall time of a child runs
from just before it is spawned until ``os.wait4`` has reaped it; the same
call gives its CPU time and peak resident set.

All inputs are generated from the seed during set-up, before any timed
span.  The program only receives the generated text and container files.
"""

from __future__ import annotations

import compileall
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1

# the body of the ``geompair`` console script
CLI_BOOT = "import sys; from geompair.cli import main; sys.exit(main())"


def require_program() -> None:
    """Build the package under ``src/`` and make it importable; exit 2 if it is absent.

    Building is byte-compiling, as an install would, so that no timed
    child pays for compiling the sources.
    """
    if not (SRC / "geompair" / "cli.py").is_file():
        print(f"benchmark: no geompair package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if not compileall.compile_dir(str(SRC / "geompair"), quiet=1):
        print("benchmark: the geompair sources do not compile", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # numpy is imported for the oracle only; with one BLAS thread its
    # import starts no thread pool, whose start-up cost and scheduling
    # noise would otherwise swamp the CLI's own time on a small machine
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamSpec:
    """One codec stream: a family, and geometric pairs drawn at q."""

    name: str
    kind: str
    k: int
    q: float
    n: int

    def family_args(self) -> list[str]:
        return ["--family", self.kind, "--k", str(self.k)]


# Matched q: each family at its own design point, so codewords are short.
DESIGN_STREAMS = (
    StreamSpec("ck1", "ck", 1, 0.5, 40_000),
    StreamSpec("ck3", "ck", 3, 2 ** (-1 / 3), 40_000),
    StreamSpec("ck16", "ck", 16, 2 ** (-1 / 16), 40_000),
    StreamSpec("ck256", "ck", 256, 2 ** (-1 / 256), 40_000),
    StreamSpec("cminus2", "cminus", 2, 1 / 4, 40_000),
    StreamSpec("cminus4", "cminus", 4, 1 / 16, 40_000),
    StreamSpec("limit", "limit", 0, 0.2, 40_000),
    StreamSpec("golomb3", "golomb", 3, 2 ** (-1 / 3), 40_000),
)

# Low-q codes on data whose mean drifted far above their design point:
# long signatures, many codewords over 64 bits.
DEEP_STREAMS = (
    StreamSpec("limit-q90", "limit", 0, 0.9, 10_000),
    StreamSpec("cminus2-q90", "cminus", 2, 0.9, 10_000),
    StreamSpec("cminus4-q85", "cminus", 4, 0.85, 10_000),
)

ALL_STREAMS = DESIGN_STREAMS + DEEP_STREAMS


@dataclass
class StreamData:
    spec: StreamSpec
    pairs: list[tuple[int, int]]
    text: bytes  # "i j\n" per pair: exactly what ``geompair decode`` prints
    lengths: list[int]  # modelled codeword length of each pair

    @property
    def payload_bits(self) -> int:
        return sum(self.lengths)

    def over64_share(self) -> float:
        return sum(1 for n in self.lengths if n > 64) / len(self.lengths)


def modelled_lengths(spec: StreamSpec, pairs) -> list[int]:
    """Codeword length of every pair from the library's length functions."""
    from geompair.basecodes import golomb_length
    from geompair.ck_codec import CkCodec
    from geompair.cminus_codec import limit_row, signature_length_row

    if spec.kind == "ck":
        length_of = CkCodec(spec.k).length_of
        return [length_of(p) for p in pairs]
    if spec.kind == "golomb":
        return [golomb_length(spec.k, i) + golomb_length(spec.k, j) for i, j in pairs]
    rows: dict[int, tuple[int, int]] = {}
    out = []
    for i, j in pairs:
        s = i + j
        if s not in rows:
            row = limit_row(s) if spec.kind == "limit" else signature_length_row(spec.k, s)
            rows[s] = (row.lam, row.n_short)
        lam, n_short = rows[s]
        out.append(lam if i < n_short else lam + 1)
    return out


def make_stream(spec: StreamSpec, seed: int) -> StreamData:
    rng = np.random.default_rng([seed, ALL_STREAMS.index(spec)])
    values = rng.geometric(1.0 - spec.q, size=(spec.n, 2)) - 1
    pairs = [tuple(p) for p in values.tolist()]
    text = "".join(f"{i} {j}\n" for i, j in pairs).encode("ascii")
    return StreamData(spec, pairs, text, modelled_lengths(spec, pairs))


# Means for ``select``: one per log-spaced bin across the selector's
# tabulated range q in [0.02, 0.985], so every round covers the small-q
# (cminus / limit) and the large-q (ck) regimes.  Neighbouring bins take
# antithetic offsets u and 1 - u, which keeps the mean bits per pair of
# the chosen families nearly the same from seed to seed.
SELECT_BINS = 8
SELECT_MEAN_LO = 0.02 / 0.98
SELECT_MEAN_HI = 0.985 / 0.015


def make_means(seed: int) -> list[float]:
    rng = np.random.default_rng([seed, len(ALL_STREAMS)])
    lo, hi = math.log(SELECT_MEAN_LO), math.log(SELECT_MEAN_HI)
    width = (hi - lo) / SELECT_BINS
    means = []
    for pair in range(SELECT_BINS // 2):
        u = rng.random()
        for b, offset in ((2 * pair, u), (2 * pair + 1, 1.0 - u)):
            means.append(round(math.exp(lo + width * (b + offset)), 6))
    return means


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> ChildResult:
    """Run one child to completion; stdout and stderr go to files."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
    )


@dataclass
class Op:
    """One cold child of a round and the check of its output.

    A ``cli`` op runs ``geompair <args>``; any other op runs
    ``python <args>``.  ``check`` runs after the child has exited, gets
    its standard output and returns an error message, or None when the
    output is right.
    """

    kind: str
    label: str
    args: list[str]
    cli: bool = True
    expect_code: int = 0
    check: Callable[[str], str | None] = lambda stdout: None
    pairs: int = 0


@dataclass
class OpRecord:
    op: Op
    result: ChildResult
    error: str | None
    stdout: str
    round: int  # -1 for set-up children
    ref_s: float = math.nan  # mean wall time of the reference children run just before and after


@dataclass
class Runner:
    """Runs ops as cold children and keeps every record.

    ``cli_launcher`` is the command that stands for ``geompair``; the
    traced run swaps in a launcher that counts bit I/O calls.
    """

    workdir: Path
    cli_launcher: list[str] = field(default_factory=lambda: [sys.executable, "-c", CLI_BOOT])
    env: dict[str, str] = field(default_factory=child_env)
    records: list[OpRecord] = field(default_factory=list)

    def stdout_path(self, op: Op) -> Path:
        return self.workdir / f"{op.kind}-{op.label}.out"

    def stderr_path(self, op: Op) -> Path:
        return self.workdir / f"{op.kind}-{op.label}.err"

    def run(self, op: Op, round_index: int) -> OpRecord:
        argv = (self.cli_launcher if op.cli else [sys.executable]) + op.args
        result = run_child(argv, self.env, self.stdout_path(op), self.stderr_path(op))
        stdout = self.stdout_path(op).read_bytes().decode("utf-8", "replace")
        if result.code != op.expect_code:
            error = f"exit {result.code}, expected {op.expect_code}"
        else:
            error = op.check(stdout)
        record = OpRecord(op, result, error, stdout, round_index)
        self.records.append(record)
        return record

    def run_round(self, ops: list[Op], round_index: int) -> list[OpRecord]:
        return [self.run(op, round_index) for op in ops]
