"""Per-layer metrics of the traced run.

Each measurement is a span recorded from this file around calls into one
module's public functions: ``bitio``, the codecs (``ck_codec``,
``cminus_codec``, ``basecodes``), ``cli``, ``fringe2``, ``analysis`` and
``oracle``.  Nothing inside the package is instrumented.  Codec and bit
I/O spans run in this process on every stream of both codec workloads,
after a warm-up pass has filled the codecs' lazy tables; the costs a
command-line user pays once per process (codec build, import, the first
``adaptive_select``) are timed inside cold children.

Which end-to-end metric each layer should move, and on which workload:

* ``bitio``, codecs: round times of design-points (short writes, one
  ``read_bit`` per unary bit) and deep-signatures (long writes, 64-bit
  reads); not analysis-cold.  ``ck_codec.*.build_s`` moves ``setup_s``
  and ``peak_rss_mb`` of design-points.
* ``cminus_codec.*.decode_us_s*``: deep-signatures, whose signatures are
  long; design-points barely (s is near 0 there).
* ``cli.*_self_s`` (parse, pack, format, file I/O): a large share of
  design-points, a small one of deep-signatures.  ``cli.import_s`` moves
  ``setup_s`` and every cold child.
* ``fringe2``, ``analysis``, ``oracle``: analysis-cold only.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from pathlib import Path

import checks
from workloads import ALL_STREAMS, DEEP_STREAMS, DESIGN_STREAMS, Op, Runner, make_means, make_stream

MODULE_OF_KIND = {"ck": "ck_codec", "cminus": "cminus_codec", "limit": "cminus_codec", "golomb": "basecodes"}
SIGNATURE_PROBE_STREAMS = ("cminus4", "limit")
SIGNATURES = (8, 64, 256, 1024)
ORACLE_QS = {"q90": 0.9, "q95": 0.95, "q98": 0.98}
CODEC_WORKLOADS = {"design-points": DESIGN_STREAMS, "deep-signatures": DEEP_STREAMS}
IMPORT_REPEATS = 3
SELECT_WARM_CALLS = 3000


class Trace:
    """Spans kept in memory as (name, start, end); names are ``layer.what``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def seconds(self, name: str) -> float:
        """Duration of the last span with this name."""
        for span_name, start, end in reversed(self.spans):
            if span_name == name:
                return end - start
        raise KeyError(name)

    def seconds_by_layer(self) -> dict[str, tuple[int, float]]:
        """Span count and summed duration per layer."""
        out: dict[str, tuple[int, float]] = {}
        for name, start, end in self.spans:
            count, total = out.get(name.split(".", 1)[0], (0, 0.0))
            out[name.split(".", 1)[0]] = (count + 1, total + end - start)
        return out


def counting_reader(data: bytes):
    """A BitReader that counts ``read_bit`` and ``read_bits`` calls."""
    from geompair.bitio import BitReader

    class CountingReader(BitReader):
        bit_calls = 0
        bits_calls = 0

        def read_bit(self):
            self.bit_calls += 1
            return super().read_bit()

        def read_bits(self, n):
            self.bits_calls += 1
            return super().read_bits(n)

    return CountingReader(data)


class LayerProbe:
    """Runs every per-layer measurement; ``metrics`` maps name to (value, unit)."""

    def __init__(self, seed: int, workdir: Path, runner: Runner) -> None:
        self.seed = seed
        self.workdir = workdir
        self.runner = runner
        self.trace = Trace()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.errors: list[str] = []
        self.checked = 0  # in-process output checks made
        self.streams = {spec.name: make_stream(spec, seed) for spec in ALL_STREAMS}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def check(self, error: str | None) -> None:
        self.checked += 1
        if error:
            self.errors.append(error)

    def run(self) -> None:
        for stream in self.streams.values():
            self.codec_and_bitio(stream)
        for name in SIGNATURE_PROBE_STREAMS:
            self.decode_by_signature(self.streams[name].spec)
        for workload, specs in CODEC_WORKLOADS.items():
            self.cli_self_time(workload, specs)
        self.cold_children()
        self.analysis()
        self.oracle()

    # -- codecs and bit I/O ------------------------------------------------

    def codec_and_bitio(self, stream) -> None:
        from geompair.bitio import BitReader, BitWriter
        from geompair.families import CodeFamily, make_codec

        spec = stream.spec
        name, n, pairs = spec.name, spec.n, stream.pairs
        module = MODULE_OF_KIND[spec.kind]
        codec = make_codec(CodeFamily(spec.kind, spec.k))
        encode, encode_to, decode = codec.encode, codec.encode_to, codec.decode
        codewords = [encode(p) for p in pairs]  # warm-up: fills lazy tables

        with self.trace.span(f"{module}.{name}.encode"):
            for p in pairs:
                encode(p)
        writer = BitWriter()
        with self.trace.span(f"{module}.{name}.encode_to"):
            for p in pairs:
                encode_to(writer, p)
        data = writer.getvalue()
        reader = BitReader(data)
        with self.trace.span(f"{module}.{name}.decode"):
            decoded = [decode(reader) for _ in range(n)]
        self.check(f"{name}: in-process decode differs from the input" if decoded != pairs else None)
        self.check(f"{name}: encode_to wrote {writer.bits_written} bits, modelled {stream.payload_bits}"
                   if writer.bits_written != stream.payload_bits else None)
        for metric in ("encode", "encode_to", "decode"):
            self.put(f"{module}.{name}.{metric}_ns_per_pair",
                     self.trace.seconds(f"{module}.{name}.{metric}") / n * 1e9, "ns/pair")
        self.put(f"{module}.{name}.over64_share", stream.over64_share(), "share")

        counting = counting_reader(data)
        for _ in range(n):
            decode(counting)
        self.put(f"bitio.{name}.read_bit_calls_per_pair", counting.bit_calls / n, "calls/pair")
        self.put(f"bitio.{name}.read_bits_calls_per_pair", counting.bits_calls / n, "calls/pair")

        # the same codewords through the bit I/O layer alone
        values = [(cw.value, cw.length) for cw in codewords]
        replay = BitWriter()
        write = replay.write
        with self.trace.span(f"bitio.{name}.write"):
            for value, length in values:
                write(value, length)
        self.check(f"{name}: replayed writes differ from encode_to" if replay.getvalue() != data else None)
        read_bits = BitReader(data).read_bits
        with self.trace.span(f"bitio.{name}.read"):
            for length in stream.lengths:
                while length > 64:
                    read_bits(64)
                    length -= 64
                read_bits(length)
        for metric in ("write", "read"):
            self.put(f"bitio.{name}.{metric}_ns_per_pair",
                     self.trace.seconds(f"bitio.{name}.{metric}") / n * 1e9, "ns/pair")

    def decode_by_signature(self, spec) -> None:
        """Decode cost of one pair repeated, against its signature s = i + j."""
        from geompair.bitio import BitReader, BitWriter
        from geompair.families import CodeFamily, make_codec

        codec = make_codec(CodeFamily(spec.kind, spec.k))
        for s in SIGNATURES:
            pair = (s // 2, s - s // 2)
            copies = max(8, 16384 // s)
            writer = BitWriter()
            for _ in range(copies):
                codec.encode_to(writer, pair)
            reader = BitReader(writer.getvalue())
            span = f"cminus_codec.{spec.name}.decode_s{s}"
            with self.trace.span(span):
                decoded = [codec.decode(reader) for _ in range(copies)]
            self.check(f"{spec.name}: decode of signature {s} differs" if decoded != [pair] * copies else None)
            self.put(f"cminus_codec.{spec.name}.decode_us_s{s}",
                     self.trace.seconds(span) / copies * 1e6, "us/pair")

    # -- CLI ---------------------------------------------------------------

    def cli_self_time(self, workload: str, specs) -> None:
        """In-process ``cli.main`` minus the codec replay of the same streams:
        the time of parse, pack, format and file I/O."""
        from geompair import cli

        encode_self = decode_self = 0.0
        for spec in specs:
            stream = self.streams[spec.name]
            module = MODULE_OF_KIND[spec.kind]
            txt = self.workdir / f"layer-{spec.name}.txt"
            binary = self.workdir / f"layer-{spec.name}.bin"
            decoded = self.workdir / f"layer-{spec.name}.dec.txt"
            txt.write_bytes(stream.text)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), self.trace.span(f"cli.{workload}.{spec.name}.encode"):
                code = cli.main(["encode", str(txt), *spec.family_args(), "--out", str(binary)])
            error = (f"exit {code}" if code else
                     checks.check_container(binary.read_bytes(), stream, stderr.getvalue(), None))
            with self.trace.span(f"cli.{workload}.{spec.name}.decode"):
                code = cli.main(["decode", str(binary), "--out", str(decoded)])
            error = error or (f"exit {code}" if code else
                              checks.check_roundtrip(decoded.read_bytes(), stream.text))
            self.check(error and f"cli {spec.name}: {error}")
            encode_self += (self.trace.seconds(f"cli.{workload}.{spec.name}.encode")
                            - self.trace.seconds(f"{module}.{spec.name}.encode_to"))
            decode_self += (self.trace.seconds(f"cli.{workload}.{spec.name}.decode")
                            - self.trace.seconds(f"{module}.{spec.name}.decode"))
        self.put(f"cli.{workload}.encode_self_s", encode_self, "s")
        self.put(f"cli.{workload}.decode_self_s", decode_self, "s")

    # -- cold children -----------------------------------------------------

    def _timed_child(self, label: str, body: str) -> float:
        """Run ``body`` in a fresh interpreter; it prints one elapsed time."""
        code = "import time\n" + body
        op = Op("layer", label, ["-c", code], cli=False)
        op.check = lambda out: None if _is_float(out) else f"{label} printed {out!r}"
        record = self.runner.run(op, -1)
        if record.error:  # counted as failed with the runner's records
            return 0.0
        return float(record.stdout)

    def cold_children(self) -> None:
        for spec in DESIGN_STREAMS:
            if spec.kind == "ck":
                self.put(f"ck_codec.{spec.name}.build_s", self._timed_child(
                    f"build-{spec.name}",
                    "from geompair.ck_codec import CkCodec\n"
                    f"t = time.perf_counter(); CkCodec({spec.k}); print(time.perf_counter() - t)\n"), "s")
        self.put("cli.import_s", statistics.median(self._timed_child(
            f"import-{i}",
            "t = time.perf_counter(); import geompair.cli; print(time.perf_counter() - t)\n")
            for i in range(IMPORT_REPEATS)), "s")
        self.put("fringe2.top_code_params_s", self._timed_child(
            "top-code-params",
            "from geompair.fringe2 import top_code_params\n"
            "t = time.perf_counter()\n"
            "for k in range(1, 65):\n    top_code_params(k)\n"
            "print(time.perf_counter() - t)\n"), "s")
        self.put("analysis.select_cold_s", self._timed_child(
            "select-cold",
            "from geompair.analysis import adaptive_select\n"
            "t = time.perf_counter(); adaptive_select(1.0); print(time.perf_counter() - t)\n"), "s")

    # -- analysis and oracle -----------------------------------------------

    def analysis(self) -> None:
        from geompair.analysis import adaptive_select, best_golomb_order, family_avg_len
        from geompair.families import CodeFamily

        means = make_means(self.seed)
        adaptive_select(means[0])  # builds the threshold table
        calls = [means[i % len(means)] for i in range(SELECT_WARM_CALLS)]
        with self.trace.span("analysis.select_warm"):
            for mean in calls:
                adaptive_select(mean)
        self.put("analysis.select_warm_us", self.trace.seconds("analysis.select_warm") / len(calls) * 1e6, "us")

        # the families ``geompair sweep`` evaluates, on its default grid
        with self.trace.span("analysis.sweep_models"):
            for i in range(19):
                q = round(0.05 + 0.05 * i, 12)
                best = best_golomb_order(q)
                families = (
                    [CodeFamily("golomb", k) for k in sorted({max(1, best - 1), best, best + 1})]
                    + [CodeFamily("ck", k) for k in range(1, 65)]
                    + [CodeFamily("cminus", k) for k in range(2, 11)]
                    + [CodeFamily("limit")]
                )
                for family in families:
                    family_avg_len(family, q, 1e-9)
        self.put("analysis.sweep_models_s", self.trace.seconds("analysis.sweep_models"), "s")

    def oracle(self) -> None:
        from geompair.oracle import build_truncated_source, huffman_lengths, truncated_huffman

        for tag, q in ORACLE_QS.items():
            source = build_truncated_source(q, 1e-9)
            self.put(f"oracle.{tag}.symbols", len(source.weights), "count")
            with self.trace.span(f"oracle.{tag}.huffman_lengths"):
                huffman_lengths(source.weights)
            with self.trace.span(f"oracle.{tag}.truncated_huffman"):
                code = truncated_huffman(q, 1e-9)
            self.check(checks.OracleExpectation.for_q(q).check(code.avg_len_pair, code.uncertainty))
            for metric in ("huffman_lengths", "truncated_huffman"):
                self.put(f"oracle.{tag}.{metric}_s", self.trace.seconds(f"oracle.{tag}.{metric}"), "s")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
