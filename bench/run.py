"""Seeded benchmark of the geompair CLI, its codecs and its analysis tools.

Usage::

    python3 bench/run.py --workload design-points --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Workloads (each a closed loop: one client, one cold ``geompair`` child
at a time; see ``workloads.py``):

design-points
    ``encode`` then ``decode`` of one stream per family at its own design
    q, plus five malformed containers that ``decode`` must reject with
    exit 2.  Short codewords: per-pair overhead and CLI parse / format
    dominate, and ``ck256`` puts the k^2 top-code table into set-up.
deep-signatures
    The same for low-q codes on data far above their design q: long
    codewords, so the O(s) cminus / limit decode walk and long bit I/O
    dominate.
analysis-cold
    ``select`` over seeded means, ``sweep --with-oracle``, ``oracle`` at
    q = 0.9 and 0.95, and ``oracle_optimal_avg_len(0.98, 1e-9)`` in a
    one-line child (the CLI caps q at 0.95).  No codec call, so codec
    changes should leave it unchanged.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, measured with tracing off:

round_norm_s
    Time of one round of the workload's children at the reference speed:
    each child's median over the run of its normalised time, summed.
bits_per_pair
    Payload bits per pair of the workload's streams; for analysis-cold,
    the bits per pair of the family ``select`` chose, at each queried q.
peak_rss_mb
    The largest ``ru_maxrss`` over all children.
setup_s
    Median normalised time of a cold child that imports geompair and
    builds every codec the workload uses, run every ``SETUP_INTERVAL_S``.

A shared host runs for tens of seconds at a time a third slower or
faster, which moved raw wall times by 20-30 % from run to run.  So a
fixed pure-Python reference child runs before every timed child and
after the last, and a child's normalised time is its wall time times
``REFERENCE_S`` over the mean wall time of the two reference children
around it: the time the child would take on a host where the reference
takes ``REFERENCE_S``.  Raw wall times are printed beside it.

With ``--trace 1`` it holds the per-layer metrics of ``layers.py``; the
run also repeats the workload's round through a launcher that counts bit
I/O calls and prints the overhead of that tracing.  Every child's output
is checked; failures count in ``failed``.  The lines before the JSON
give the per-command figures (pairs per second, ``select_s``,
``sweep_s``, ``oracle_s``), each operation kind with its sample count,
wall and CPU time, the host calibration loop at start and end, and
``error_rate``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import layers
from workloads import (
    DEEP_STREAMS,
    DEFAULT_SEED,
    DESIGN_STREAMS,
    ROOT,
    Op,
    OpRecord,
    Runner,
    make_means,
    make_stream,
    require_program,
)

BENCH = Path(__file__).resolve().parent
SETUP_INTERVAL_S = 2.0
TRACED_CLI = BENCH / "traced_cli.py"
# Interpreter start and a fixed loop; no repo code, so no change to the
# program moves it.  About 0.2 s on an unloaded 2-vCPU x86-64 VM.
REFERENCE = Op("reference", "loop", ["-c", "acc = 0\nfor i in range(600_000):\n    acc += i * i % 7\n"],
               cli=False)
REFERENCE_S = 0.2


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: tracks machine drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CodecWorkload:
    """Cold ``encode`` then ``decode`` of each stream; optional rejection probes."""

    def __init__(self, name: str, specs, probes: bool, seed: int, workdir: Path) -> None:
        self.name = name
        self.workdir = workdir
        self.streams = [make_stream(spec, seed) for spec in specs]
        self.digests = checks.load_digests(seed)
        for stream in self.streams:
            (workdir / f"{stream.spec.name}.txt").write_bytes(stream.text)
        self.probe_paths = self._write_probes() if probes else []

    def _write_probes(self) -> list[Path]:
        """Malformed containers built from valid ones of a stream prefix."""
        from geompair.bitio import BitWriter
        from geompair.families import CodeFamily, make_codec

        def container(stream, count: int) -> bytes:
            spec = stream.spec
            codec = make_codec(CodeFamily(spec.kind, spec.k))
            writer = BitWriter()
            for pair in stream.pairs[:count]:
                codec.encode_to(writer, pair)
            header = checks.HEADER.pack(checks.MAGIC, 1, checks.FAMILY_BYTES[spec.kind], spec.k, count)
            return header + writer.getvalue()

        def recount(blob: bytes, count: int) -> bytes:
            return blob[: checks.HEADER.size - 8] + count.to_bytes(8, "little") + blob[checks.HEADER.size :]

        by_name = {s.spec.name: s for s in self.streams}
        ck3 = container(by_name["ck3"], 2000)
        limit = container(by_name["limit"], 2000)
        probes = {
            "truncated": ck3[: checks.HEADER.size + (len(ck3) - checks.HEADER.size) // 2],
            "trailing-byte": ck3 + b"\x00",
            "bad-magic": b"XXXX" + ck3[4:],
            "ck-count-high": recount(ck3, 1 << 40),
            "limit-count-high": recount(limit, 1 << 40),
        }
        paths = []
        for name, blob in probes.items():
            path = self.workdir / f"probe-{name}.bin"
            path.write_bytes(blob)
            paths.append(path)
        return paths

    def setup_code(self) -> str:
        families = ", ".join(f"({s.spec.kind!r}, {s.spec.k})" for s in self.streams)
        return (
            "from geompair.families import CodeFamily, make_codec\n"
            f"for kind, k in [{families}]:\n"
            "    make_codec(CodeFamily(kind, k))\n"
        )

    def ops(self, runner: Runner) -> list[Op]:
        ops = []
        for stream in self.streams:
            name = stream.spec.name
            txt = self.workdir / f"{name}.txt"
            binary = self.workdir / f"{name}.bin"
            decoded = self.workdir / f"{name}.dec.txt"
            encode = Op("encode", name, ["encode", str(txt), *stream.spec.family_args(), "--out", str(binary)],
                        pairs=stream.spec.n)
            digest = None if self.digests is None else self.digests[name]
            encode.check = (lambda out, s=stream, op=encode, b=binary, d=digest:
                            checks.check_container(b.read_bytes(), s, runner.stderr_path(op).read_text(), d))
            decode = Op("decode", name, ["decode", str(binary), "--out", str(decoded)], pairs=stream.spec.n)
            decode.check = lambda out, s=stream, p=decoded: checks.check_roundtrip(p.read_bytes(), s.text)
            ops += [encode, decode]
        for path in self.probe_paths:
            probe = Op("probe", path.stem.removeprefix("probe-"), ["decode", str(path)], expect_code=2)
            probe.check = lambda out: "rejected container produced output" if out else None
            ops.append(probe)
        return ops

    def bits_per_pair(self, records: list[OpRecord]) -> float:
        """Payload bits per pair; each encode check asserts the emitted bits equal these."""
        return sum(s.payload_bits for s in self.streams) / sum(s.spec.n for s in self.streams)

    def report(self, records: list[OpRecord], out) -> None:
        for kind in ("encode", "decode"):
            recs = [r for r in records if r.op.kind == kind]
            pairs = sum(r.op.pairs for r in recs)
            wall = sum(r.result.wall_s for r in recs)
            print(f"{kind}_pairs_per_s = {pairs / wall:.1f} pairs/s "
                  f"({len(recs)} cold children, {pairs} pairs)", file=out)
        print(f"bits_per_pair = {self.bits_per_pair(records):.6f} bits", file=out)
        for stream in self.streams:
            print(f"  stream {stream.spec.name}: {stream.payload_bits / stream.spec.n:.4f} bits/pair, "
                  f"over64_share {stream.over64_share():.4f}", file=out)
        if self.probe_paths:
            probes = [r.result.wall_s for r in records if r.op.kind == "probe"]
            print(f"  rejection probes: {len(probes)} children, slowest {max(probes):.3f} s", file=out)
        print("digest check: " + ("on" if self.digests is not None
              else f"skipped (digests are committed for seed {DEFAULT_SEED} only)"), file=out)
        for name in ("select_s", "sweep_s", "oracle_s"):
            print(f"{name} = n/a (no analysis call in this workload)", file=out)


class AnalysisWorkload:
    """Cold ``select``, ``sweep --with-oracle`` and oracle children; no codec call."""

    name = "analysis-cold"
    ORACLE_QS = (0.9, 0.95)
    ORACLE_CHILD_Q = 0.98  # above the CLI's q cap
    SWEEP_GRID = [round(0.05 + 0.05 * i, 12) for i in range(19)]  # the CLI defaults

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.means = make_means(seed)
        self.select = {m: checks.SelectExpectation.for_mean(m) for m in self.means}
        self.oracle = {q: checks.OracleExpectation.for_q(q)
                       for q in self.ORACLE_QS + (self.ORACLE_CHILD_Q,)}

    def setup_code(self) -> str:
        return "import geompair\n"

    def ops(self, runner: Runner) -> list[Op]:
        ops = []
        for i, mean in enumerate(self.means):
            ops.append(Op("select", str(i), ["select", "--mean", repr(mean)], check=self.select[mean].check))
        sweep_out = self.workdir / "sweep.csv"
        ops.append(Op("sweep", "grid", ["sweep", "--with-oracle", "--out", str(sweep_out)],
                      check=lambda out: checks.check_sweep(sweep_out.read_text(), self.SWEEP_GRID)))
        for q in self.ORACLE_QS:
            ops.append(Op("oracle", f"q{q}", ["oracle", "--q", repr(q)], check=self.oracle[q].check_cli))
        q = self.ORACLE_CHILD_Q
        code = f"from geompair.oracle import oracle_optimal_avg_len; print(oracle_optimal_avg_len({q!r}, 1e-9))"
        ops.append(Op("oracle", f"q{q}", ["-c", code], cli=False, check=self.oracle[q].check_repr))
        return ops

    def _picks(self, records: list[OpRecord]):
        return [(self.select[self.means[int(r.op.label)]], r.stdout)
                for r in records if r.op.kind == "select" and r.error is None]

    def bits_per_pair(self, records: list[OpRecord]) -> float:
        """Mean over the queried means of the bits per pair, at q-hat, of the family ``select`` chose.

        Each mean counts once, however many rounds queried it, so a
        partial last round does not weigh the means it reached more.
        """
        return statistics.fmean({exp.mean: exp.bits(out) for exp, out in self._picks(records)}.values())

    def report(self, records: list[OpRecord], out) -> None:
        for name in ("encode_pairs_per_s", "decode_pairs_per_s"):
            print(f"{name} = n/a (no codec call in this workload)", file=out)
        print(f"bits_per_pair = {self.bits_per_pair(records):.6f} bits "
              "(chosen family at each queried mean)", file=out)
        excess = max(exp.excess_bits(label) for exp, label in self._picks(records))
        print(f"  select excess over the direct minimum: max {excess:.3e} bits/pair "
              f"over means {', '.join(map(str, self.means))}", file=out)
        selects = [r.result.wall_s for r in records if r.op.kind == "select"]
        print(f"select_s = {statistics.median(selects):.4f} s (median of {len(selects)} cold children)", file=out)
        sweeps = [r.result.wall_s for r in records if r.op.kind == "sweep"]
        print(f"sweep_s = {statistics.median(sweeps):.4f} s (median of {len(sweeps)} cold children)", file=out)
        oracle_ops = len(self.ORACLE_QS) + 1
        per_round = [sum(r.result.wall_s for r in oracles) for oracles in
                     ([r for r in rnd if r.op.kind == "oracle"] for rnd in _rounds(records))
                     if len(oracles) == oracle_ops]
        print(f"oracle_s = {statistics.median(per_round):.4f} s (median over {len(per_round)} rounds "
              "of q = 0.9, 0.95, 0.98 summed)", file=out)
        print("digest check: n/a (no containers)", file=out)


WORKLOADS = ("design-points", "deep-signatures", "analysis-cold")


def make_workload(name: str, seed: int, workdir: Path):
    if name == "design-points":
        return CodecWorkload(name, DESIGN_STREAMS, True, seed, workdir)
    if name == "deep-signatures":
        return CodecWorkload(name, DEEP_STREAMS, False, seed, workdir)
    return AnalysisWorkload(seed, workdir)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _rounds(records: list[OpRecord]) -> list[list[OpRecord]]:
    """Records grouped by the round index stored on each record."""
    out: dict[int, list[OpRecord]] = {}
    for r in records:
        out.setdefault(r.round, []).append(r)
    return list(out.values())


def run_rounds(runner: Runner, ops: list[Op], setup: Op, seconds: float):
    """Closed loop: rounds back to back until ``seconds`` have passed.

    The run stops at the first op after the deadline once a whole round
    is done, so the last round may be partial.  A set-up child runs
    between two ops whenever ``SETUP_INTERVAL_S`` has passed since the
    last one, so its samples spread over the whole run instead of one
    burst that a slow spell of the machine can cover.  A reference child
    runs before every child and after the last; each record's ``ref_s``
    is the mean wall time of the two around it.  Returns the rounds'
    records and the set-up records.
    """
    references = Runner(runner.workdir, env=runner.env)

    def reference() -> float:
        record = references.run(REFERENCE, -2)
        if record.error:
            raise RuntimeError(f"reference child: {record.error}")
        return record.result.wall_s

    last_ref = reference()

    def run(op: Op, round_index: int) -> OpRecord:
        nonlocal last_ref
        record = runner.run(op, round_index)
        ref = reference()
        record.ref_s = (last_ref + ref) / 2
        last_ref = ref
        return record

    deadline = time.perf_counter() + seconds
    rounds: list[list[OpRecord]] = []
    setups: list[OpRecord] = []
    last_setup = -math.inf
    while not rounds or time.perf_counter() < deadline:
        records = []
        rounds.append(records)
        for op in ops:
            if len(rounds) > 1 and time.perf_counter() >= deadline:
                break
            if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
                setups.append(run(setup, -1))
                last_setup = time.perf_counter()
            records.append(run(op, len(rounds) - 1))
    return rounds, setups


def normalised_s(record: OpRecord) -> float:
    """The child's wall time on a host where the reference child takes ``REFERENCE_S``."""
    return record.result.wall_s * REFERENCE_S / record.ref_s


def op_summary(records: list[OpRecord], out) -> None:
    kinds = sorted({r.op.kind for r in records})
    for kind in kinds:
        recs = [r for r in records if r.op.kind == kind]
        walls = [r.result.wall_s for r in recs]
        cpus = [r.result.cpu_s for r in recs]
        print(f"  op {kind:8s} n={len(recs):4d}  wall median {statistics.median(walls):.4f} s "
              f"max {max(walls):.4f} s  cpu median {statistics.median(cpus):.4f} s  "
              f"peak rss {max(r.result.maxrss_mb for r in recs):.1f} MB", file=out)


def end_to_end(workload, runner: Runner, seconds: float, out) -> dict[str, tuple[float, str]]:
    setup_op = Op("setup", workload.name, ["-c", workload.setup_code()], cli=False)
    rounds, setups = run_rounds(runner, workload.ops(runner), setup_op, seconds)
    records = [r for rnd in rounds for r in rnd]
    workload.report(records, out)
    whole = rounds if len(rounds[-1]) == len(rounds[0]) else rounds[:-1]
    print(f"rounds: {len(whole)} whole, {len(rounds) - len(whole)} partial; wall per whole round "
          f"{', '.join(f'{sum(r.result.wall_s for r in rnd):.3f}' for rnd in whole)} s, "
          f"cpu per whole round {', '.join(f'{sum(r.result.cpu_s for r in rnd):.3f}' for rnd in whole)} s",
          file=out)
    op_summary(runner.records, out)
    refs = [r.ref_s for r in records + setups]
    print(f"reference child: median {statistics.median(refs):.4f} s, min {min(refs):.4f} s, "
          f"max {max(refs):.4f} s over {len(refs)} neighbour means (REFERENCE_S = {REFERENCE_S} s)", file=out)
    # Each op at its median over the run, summed.  Normalising takes out
    # the host's slow spells; the median then takes out the short spikes.
    walls: dict[tuple[str, str], list[float]] = {}
    norms: dict[tuple[str, str], list[float]] = {}
    for r in records:
        walls.setdefault((r.op.kind, r.op.label), []).append(r.result.wall_s)
        norms.setdefault((r.op.kind, r.op.label), []).append(normalised_s(r))
    print(f"round wall time, raw: {sum(min(w) for w in walls.values()):.4f} s with each op at its fastest, "
          f"{sum(statistics.median(w) for w in walls.values()):.4f} s at its median", file=out)
    print(f"setup wall time, raw: median {statistics.median(r.result.wall_s for r in setups):.4f} s "
          f"over {len(setups)} children", file=out)
    return {
        "round_norm_s": (sum(statistics.median(n) for n in norms.values()), "s"),
        "bits_per_pair": (workload.bits_per_pair(records), "bits"),
        "peak_rss_mb": (max(r.result.maxrss_mb for r in runner.records), "MB"),
        "setup_s": (statistics.median(normalised_s(r) for r in setups), "s"),
    }


def traced(workload, runner: Runner, seed: int, workdir: Path, seconds: float, out):
    """Per-layer metrics, then untraced and traced rounds in pairs for the overhead."""
    probe = layers.LayerProbe(seed, workdir, runner)
    probe.run()
    for layer, (count, total) in sorted(probe.trace.seconds_by_layer().items()):
        print(f"  layer {layer:14s} {count:4d} spans  {total:8.3f} s", file=out)

    counts_path = workdir / "counts.json"
    env = dict(runner.env, BENCH_COUNTS=str(counts_path))
    tracer = Runner(workdir, cli_launcher=[sys.executable, str(TRACED_CLI)], env=env)
    ops = workload.ops(runner)
    deadline = time.perf_counter() + seconds
    plain_walls, traced_walls, counts = [], [], []
    while not traced_walls or time.perf_counter() < deadline:
        index = len(traced_walls)
        plain = runner.run_round(ops, index)
        round_counts = {}
        for op in ops:
            tracer.run(op, index)
            if op.cli and counts_path.exists():  # absent if the child crashed
                round_counts[f"{op.kind}-{op.label}"] = json.loads(counts_path.read_text())
                counts_path.unlink()
        plain_walls.append(sum(r.result.wall_s for r in plain))
        traced_walls.append(sum(r.result.wall_s for r in tracer.records if r.round == index))
        counts.append(round_counts)
    overhead = statistics.median(t - p for t, p in zip(traced_walls, plain_walls))
    print(f"tracing overhead: round wall time {overhead:+.4f} s "
          f"({overhead / statistics.median(plain_walls):+.1%}, median of {len(plain_walls)} round pairs; "
          "traced children count every bit I/O call)", file=out)
    for op, calls in counts[0].items():
        if any(calls.values()):
            print(f"  bit I/O calls {op}: " + ", ".join(f"{k} {v}" for k, v in calls.items()), file=out)
    total = sum(sum(calls.values()) for calls in counts[0].values())
    print(f"  bit I/O calls in one traced round: {total}", file=out)
    print(f"  bit I/O counts repeat exactly across {len(counts)} traced rounds: "
          f"{'yes' if all(c == counts[0] for c in counts) else 'NO'}", file=out)
    return probe.metrics, probe.errors, probe.checked, tracer.records


def self_test(workdir: Path, out) -> int:
    """A flipped payload bit and a wrong committed digest must each count as failed."""
    workload = CodecWorkload("design-points", [s for s in DESIGN_STREAMS if s.name == "ck3"], False,
                             DEFAULT_SEED, workdir)
    runner = Runner(workdir)
    encode, decode = workload.ops(runner)
    clean = runner.run_round([encode, decode], 0)

    binary = workdir / "ck3.bin"
    blob = bytearray(binary.read_bytes())
    blob[checks.HEADER.size + (len(blob) - checks.HEADER.size) // 2] ^= 0x10
    binary.write_bytes(bytes(blob))
    flipped = runner.run(decode, 1)

    workload.digests = {"ck3": "0" * 64}
    wrong_digest = runner.run(workload.ops(runner)[0], 2)

    for name, record in (("clean encode", clean[0]), ("clean decode", clean[1]),
                         ("decode of a container with one payload bit flipped", flipped),
                         ("encode checked against a wrong digest", wrong_digest)):
        print(f"self-test {name}: {'FAILED: ' + record.error if record.error else 'ok'}", file=out)
    for name, record in (("flipped bit", flipped), ("wrong digest", wrong_digest)):
        print(f"self-test error_rate with the {name}: {int(bool(record.error))}/{len(clean) + 1}", file=out)
    ok = not any(r.error for r in clean) and flipped.error and wrong_digest.error
    print(f"self-test {'passed' if ok else 'did not pass'}", file=out)
    return 0 if ok else 1


def measure(args, declared: dict, workdir: Path, out) -> int:
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}", file=out)
    calib_start = calibrate()
    workload = make_workload(args.workload, args.seed, workdir)
    runner = Runner(workdir)
    if args.trace:
        metrics, errors, checked, traced_records = traced(workload, runner, args.seed, workdir, args.seconds, out)
        records = runner.records + traced_records
    else:
        metrics = end_to_end(workload, runner, args.seconds, out)
        errors, checked, records = [], 0, runner.records
    calib_end = calibrate()
    print(f"host.calib_s: start {calib_start:.4f} s, end {calib_end:.4f} s", file=out)
    if args.trace:
        metrics["host.calib_s"] = ((calib_start + calib_end) / 2, "s")

    errors = [f"{r.op.kind} {r.op.label}: {r.error}" for r in records if r.error] + errors
    attempted = len(records) + checked
    print(f"error_rate = {len(errors)}/{attempted} = {len(errors) / attempted:.4f} failed/attempted", file=out)
    for error in errors[:20]:
        print(f"benchmark: FAILED {error}", file=sys.stderr)

    declared_units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != declared_units:
        print(f"benchmark: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units.items()) ^ set(declared_units.items()))}", file=sys.stderr)
        return 3
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the geompair CLI.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a corrupted container and a wrong digest count as failed")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    require_program()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_test:
            return self_test(workdir, sys.stdout)
        return measure(args, declared, workdir, sys.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
