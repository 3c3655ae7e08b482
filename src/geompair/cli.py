"""Command-line interface: file codec, parameter tables, sweeps, oracle.

Container format: a 16-byte header (magic ``TDGD``, version 1, family
byte, little-endian uint16 k, little-endian uint64 pair count) followed
by the MSB-first bitstream of the pairs, zero-padded to a whole byte.
Codec input/output is whitespace-separated nonnegative decimal integers
consumed as consecutive pairs.

Exit codes: 0 ok, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import struct
import sys

from . import analysis
from .bitio import BitReader, StreamExhausted
from .cminus_codec import signature_length_row
from .families import FAMILY_BYTES, FAMILY_FROM_BYTE, CodeFamily, InvalidFamilyParam, make_codec
from .fringe2 import top_code_params
from .oracle import DEFAULT_SYMBOL_CAP, SourceTooLarge, oracle_optimal_avg_len

MAGIC = b"TDGD"
VERSION = 1
HEADER = struct.Struct("<4sBBHQ")

ORACLE_Q_CAP = 0.95


class DataError(Exception):
    """Bad input data (parse failures, malformed containers)."""


class BadMagic(DataError):
    pass


class TrailingGarbage(DataError):
    pass


class OddSymbolCount(DataError):
    pass


class ParseError(DataError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not ASCII text: {exc}") from exc


def _read_binary(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_binary(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    tokens = text.split()
    if not "".join(tokens).isdecimal():  # not isdigit, which passes superscripts int() rejects
        for offset, token in enumerate(tokens):
            if not token.isdecimal():
                raise ParseError(f"token {token!r} at position {offset} is not a nonnegative integer")
    values = list(map(int, tokens))
    if len(values) % 2:
        raise OddSymbolCount(f"{len(values)} integers do not form pairs")
    return list(zip(values[0::2], values[1::2]))


def _family_from_args(args) -> CodeFamily:
    k = args.k if args.k is not None else (0 if args.family == "limit" else 1)
    return CodeFamily(args.family, k)


def cmd_encode(args) -> int:
    family = _family_from_args(args)
    codec = make_codec(family)
    pairs = _parse_pairs(_read_text(args.input))
    payload, nbits = codec.encode_many(pairs)
    if args.verbose:
        for pair in pairs:
            cw = codec.encode(pair)
            print(f"pair {pair} -> {cw.bits()} ({cw.length} bits)", file=sys.stderr)
    header = HEADER.pack(MAGIC, VERSION, FAMILY_BYTES[family.kind], family.k, len(pairs))
    _write_binary(args.out, header + payload)
    print(f"encoded {len(pairs)} pairs, {nbits} payload bits", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    blob = _read_binary(args.input)
    if len(blob) < HEADER.size:
        raise BadMagic("file shorter than header")
    magic, version, family_byte, k, count = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise DataError(f"unsupported version {version}")
    if family_byte not in FAMILY_FROM_BYTE:
        raise DataError(f"unknown family byte {family_byte}")
    try:
        family = CodeFamily(FAMILY_FROM_BYTE[family_byte], k)
    except InvalidFamilyParam as exc:
        raise DataError(str(exc)) from exc
    payload = blob[HEADER.size :]
    if count > 8 * len(payload):  # every codeword is at least one bit
        raise DataError(
            f"header claims {count} pairs, but the {len(payload)} payload bytes "
            f"hold at most {8 * len(payload)} codewords"
        )
    codec = make_codec(family)
    reader = BitReader(payload)
    lines = []
    try:
        for index in range(count):
            start = reader.bits_consumed
            i, j = codec.decode(reader)
            lines.append(f"{i} {j}\n")
    except StreamExhausted as exc:
        raise DataError(
            f"bitstream truncated in pair {index} (0-based), "
            f"which starts at payload bit {start}: {exc}"
        ) from exc
    if reader.bits_remaining >= 8:
        raise TrailingGarbage(f"{reader.bits_remaining} bits beyond final pair")
    pad = reader.bits_remaining
    if pad and reader.read_bits(pad) != 0:
        raise TrailingGarbage("nonzero padding bits")
    _write_text(args.out, "".join(lines))
    return 0


def cmd_params(args) -> int:
    if args.k_min < 1 or args.k_max < args.k_min:
        raise DataError("need 1 <= k-min <= k-max")
    rows = ["   k   M   j   r  sigma    c  profile"]
    for k in range(args.k_min, args.k_max + 1):
        p = top_code_params(k)
        if k == 1:
            rows.append(f"{k:4d}   void top code: both components sent in unary")
            continue
        prof = ",".join(str(x) for x in p.profile.leaves)
        rows.append(
            f"{k:4d} {p.M:3d} {p.j:3d} {p.r:3d} {p.sigma:6d} {p.c:4d}  ({prof})"
        )
    _write_text(args.out, "".join(r + "\n" for r in rows))
    return 0


def cmd_lengths(args) -> int:
    if args.k < 2:
        raise DataError("per-signature length tables need k >= 2")
    if args.s_min < 0 or args.s_max < args.s_min:
        raise DataError("need 0 <= s-min <= s-max")
    rows = ["   s  base_len  n_at_base  n_at_base+1"]
    for s in range(args.s_min, args.s_max + 1):
        row = signature_length_row(args.k, s)
        rows.append(f"{s:4d}  {row.lam:8d}  {row.n_short:9d}  {row.n_long:11d}")
    _write_text(args.out, "".join(r + "\n" for r in rows))
    return 0


def _grid(lo: float, hi: float, step: float) -> list[float]:
    out = []
    n = 0
    while True:
        q = lo + n * step
        if q > hi + 1e-12:
            break
        out.append(round(q, 12))
        n += 1
    return out


def cmd_sweep(args) -> int:
    if not (0.0 < args.q_lo <= args.q_hi < 1.0):
        raise DataError("need 0 < q-lo <= q-hi < 1")
    if args.step <= 0:
        raise DataError("step must be positive")
    lines = ["q,entropy,opt_est,red_golomb_best,red_ck_best,red_cminus_best,red_limit"]
    for q in _grid(args.q_lo, args.q_hi, args.step):
        ent = analysis.entropy_per_symbol(q)
        golomb = min(
            analysis.golomb_pair_avg_len(q, k)
            for k in _golomb_orders_near(q)
        )
        ck = min(analysis.avg_len_ck(q, k) for k in range(1, 65))
        cminus = min(
            analysis.avg_len_by_series(analysis.CminusLengthModel(k), q, args.eps)
            for k in range(2, 11)
        )
        limit = analysis.avg_len_limit_closed(q)
        opt = ""
        if args.with_oracle and q <= ORACLE_Q_CAP:
            est, _ = oracle_optimal_avg_len(q, args.eps)
            opt = f"{analysis.redundancy_per_symbol(est, q):.6f}"
        lines.append(
            f"{q:.6f},{ent:.6f},{opt},"
            f"{analysis.redundancy_per_symbol(golomb, q):.6f},"
            f"{analysis.redundancy_per_symbol(ck, q):.6f},"
            f"{analysis.redundancy_per_symbol(cminus, q):.6f},"
            f"{analysis.redundancy_per_symbol(limit, q):.6f}"
        )
    _write_text(args.out, "".join(line + "\n" for line in lines))
    return 0


def _golomb_orders_near(q: float) -> list[int]:
    best = analysis.best_golomb_order(q)
    return sorted({max(1, best - 1), best, best + 1})


def cmd_oracle(args) -> int:
    if not 0.0 < args.q <= ORACLE_Q_CAP:
        raise DataError(f"oracle runs are capped at q <= {ORACLE_Q_CAP}")
    try:
        est, unc = oracle_optimal_avg_len(args.q, args.eps, args.cap)
    except SourceTooLarge as exc:
        raise DataError(str(exc)) from exc
    print(f"{est:.6f} ± {unc:.2e}")
    return 0


def _family_from_name(name: str) -> CodeFamily:
    """``limit``, or a family kind followed by its order (``ck3``, ``cminus2``, ``golomb5``)."""
    if name == "limit":
        return CodeFamily("limit")
    kind = name.rstrip("0123456789")
    if kind not in ("ck", "cminus", "golomb") or kind == name:
        raise DataError(f"unknown model {name!r}: use limit, ck<k>, cminus<k> or golomb<k>")
    return CodeFamily(kind, int(name[len(kind):]))


def cmd_crossover(args) -> int:
    if not 0.0 < args.q_lo < args.q_hi < 1.0:
        raise DataError("need 0 < q-lo < q-hi < 1")
    if args.tol <= 0:
        raise DataError("tol must be positive")
    family_a = _family_from_name(args.model_a)
    family_b = _family_from_name(args.model_b)
    try:
        q_star = analysis.crossover(
            lambda q: analysis.family_avg_len(family_a, q),
            lambda q: analysis.family_avg_len(family_b, q),
            args.q_lo, args.q_hi, args.tol,
        )
    except analysis.NoSignChange as exc:
        raise DataError(str(exc)) from exc
    print(f"{q_star:.5f}")
    return 0


def cmd_select(args) -> int:
    if args.mean < 0:
        raise DataError("mean must be >= 0")
    fam = analysis.adaptive_select(args.mean)
    print(fam.label())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geompair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode integer pairs to a container file")
    enc.add_argument("input", nargs="?", default="-", help="text file of integers ('-' = stdin)")
    enc.add_argument("--family", required=True, choices=list(FAMILY_BYTES))
    enc.add_argument("--k", type=int, default=None)
    enc.add_argument("--out", default="-")
    enc.add_argument("--verbose", action="store_true", help="per-pair diagnostics on stderr")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a container file to integer pairs")
    dec.add_argument("input", nargs="?", default="-")
    dec.add_argument("--out", default="-")
    dec.set_defaults(func=cmd_decode)

    par = sub.add_parser("params", help="top-code parameter table")
    par.add_argument("--k-min", type=int, default=2)
    par.add_argument("--k-max", type=int, default=10)
    par.add_argument("--out", default="-")
    par.set_defaults(func=cmd_params)

    lng = sub.add_parser("lengths", help="per-signature length table")
    lng.add_argument("--k", type=int, required=True)
    lng.add_argument("--s-min", type=int, default=0)
    lng.add_argument("--s-max", type=int, required=True)
    lng.add_argument("--out", default="-")
    lng.set_defaults(func=cmd_lengths)

    swp = sub.add_parser("sweep", help="redundancy sweep CSV")
    swp.add_argument("--q-lo", type=float, default=0.05)
    swp.add_argument("--q-hi", type=float, default=0.95)
    swp.add_argument("--step", type=float, default=0.05)
    swp.add_argument("--eps", type=float, default=1e-9)
    swp.add_argument("--with-oracle", action="store_true")
    swp.add_argument("--out", default="-")
    swp.set_defaults(func=cmd_sweep)

    orc = sub.add_parser("oracle", help="truncated-Huffman optimal-length estimate")
    orc.add_argument("--q", type=float, required=True)
    orc.add_argument("--eps", type=float, default=1e-9)
    orc.add_argument("--cap", type=int, default=DEFAULT_SYMBOL_CAP)
    orc.set_defaults(func=cmd_oracle)

    crs = sub.add_parser("crossover", help="bisect two families' average lengths")
    crs.add_argument("--model-a", default="limit", help="limit, ck<k>, cminus<k> or golomb<k>")
    crs.add_argument("--model-b", default="ck1", help="limit, ck<k>, cminus<k> or golomb<k>")
    crs.add_argument("--q-lo", type=float, default=0.25)
    crs.add_argument("--q-hi", type=float, default=0.45)
    crs.add_argument("--tol", type=float, default=1e-6)
    crs.set_defaults(func=cmd_crossover)

    sel = sub.add_parser("select", help="best family for a sample mean")
    sel.add_argument("--mean", type=float, required=True)
    sel.set_defaults(func=cmd_select)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (DataError, InvalidFamilyParam, analysis.QOutOfRange) as exc:
        print(f"geompair: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"geompair: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
