"""Command-line interface: file codec, parameter tables, sweeps, oracle.

Container format: a 16-byte header (magic ``TDGD``, version 1, family
byte, little-endian uint16 k, little-endian uint64 pair count) followed
by the MSB-first bitstream of the pairs, zero-padded to a whole byte.
Codec input/output is whitespace-separated nonnegative decimal integers
consumed as consecutive pairs.

Exit codes: 0 ok, 1 usage error, 2 data error.
"""

import math
import os
import struct
import sys
from collections import namedtuple
from types import SimpleNamespace

from .families import FAMILY_BYTES, FAMILY_FROM_BYTE, K_MAX, CodeFamily, DataError, make_codec

# Each command imports the modules it uses, so that ``encode`` and
# ``decode`` load only the codec they run (``make_codec`` imports its
# module), and a container refused at its header loads none.

MAGIC = b"TDGD"
VERSION = 1
HEADER = struct.Struct("<4sBBHQ")

ORACLE_Q_CAP = 0.95
MAX_ROWS = 10**6  # rows of a params or lengths table, points of a sweep grid


class ParseError(DataError):
    pass


def _read_text(path: str) -> str:
    """The file or stdin as ASCII text, decoded from its bytes either way."""
    try:
        return _read_binary(path).decode("ascii")
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
    else:  # text mode's bytes, without the ascii codec lookup open(encoding=) makes
        _write_binary(path, text.replace("\n", os.linesep).encode("ascii"))


# The ASCII characters that isdecimal passes (not isdigit, which passes
# superscripts int() rejects), and those that str.split() splits on.  Text
# of these alone has only decimal tokens; any other text, non-ASCII text
# included, has each of its tokens checked.
_DECIMAL_OR_SPACE = b"0123456789 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _tokens(text: str) -> list[str]:
    """The tokens of codec input, each checked to be a nonnegative decimal integer."""
    tokens = text.split()
    if not text.isascii() or text.encode("ascii").translate(None, _DECIMAL_OR_SPACE):
        for offset, token in enumerate(tokens):
            if not token.isdecimal():
                raise ParseError(f"token {token!r} at position {offset} is not a nonnegative integer")
    return tokens


def _check_values(tokens: list[str]) -> None:
    """Refuse the checked ``tokens`` for one too long to convert to an int, else for an odd count."""
    try:
        list(map(int, tokens))
    except ValueError:  # a token of more digits than the interpreter's int-string limit
        limit = sys.get_int_max_str_digits()
        offset = next(n for n, token in enumerate(tokens) if len(token) > limit)
        raise ParseError(f"token at position {offset} has {len(tokens[offset])} digits, "
                         f"more than the limit of {limit}") from None
    if len(tokens) % 2:
        raise DataError(f"{len(tokens)} integers do not form pairs")


def _family_from_args(args) -> CodeFamily:
    k = args.k if args.k is not None else (0 if args.family == "limit" else 1)
    return CodeFamily(args.family, k)


def cmd_encode(args) -> int:
    family = _family_from_args(args)
    if family.k > K_MAX:  # checked before the input is read or a codec built
        raise DataError(f"k must be at most {K_MAX}, the container header's limit, got {family.k}")
    codec = make_codec(family)
    tokens = _tokens(_read_text(args.input))
    count = len(tokens) // 2
    if len(tokens) % 2:
        _check_values(tokens)
    try:
        payload, nbits = codec.encode_tokens(tokens)
    except (ValueError, OverflowError, MemoryError) as exc:  # a bad token, or too many bits
        _check_values(tokens)  # a token too long to convert is reported first, as ever
        if isinstance(exc, ValueError):
            raise
        raise DataError(f"a pair's codeword is too long to encode ({type(exc).__name__})") from exc
    header = HEADER.pack(MAGIC, VERSION, FAMILY_BYTES[family.kind], family.k, count)
    _write_binary(args.out, header + payload)
    print(f"encoded {count} pairs, {nbits} payload bits", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    blob = _read_binary(args.input)
    if len(blob) < HEADER.size:
        raise DataError("file shorter than header")
    magic, version, family_byte, k, count = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise DataError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DataError(f"unsupported version {version}")
    if family_byte not in FAMILY_FROM_BYTE:
        raise DataError(f"unknown family byte {family_byte}")
    family = CodeFamily(FAMILY_FROM_BYTE[family_byte], k)
    payload = memoryview(blob)[HEADER.size :]
    if count > 8 * len(payload):  # every codeword is at least one bit
        raise DataError(
            f"header claims {count} pairs, but the {len(payload)} payload bytes "
            f"hold at most {8 * len(payload)} codewords"
        )
    from .bitio import BitReader, StreamExhausted

    codec = make_codec(family)
    reader = BitReader(payload)
    try:
        text = codec.decode_text(reader, count)
    except StreamExhausted as exc:
        raise DataError(
            f"bitstream truncated in pair {exc.pair} (0-based), "
            f"which starts at payload bit {exc.start}: {exc}"
        ) from exc
    end = reader.bits_consumed
    pad = reader.bits_remaining
    if pad >= 8:
        raise DataError(f"{pad} bits beyond final pair, starting at payload bit {end}")
    bits, pos, _ = reader.reload_window()
    if "1" in bits[pos : pos + pad]:
        raise DataError(f"nonzero padding bits, starting at payload bit {end}")
    _write_text(args.out, text)
    return 0


def _check_rows(name: str, lo: int, hi: int) -> None:
    if hi - lo >= MAX_ROWS:  # checked before any row is built
        raise DataError(f"{name}-min {lo} to {name}-max {hi} makes more than {MAX_ROWS} rows")


def cmd_params(args) -> int:
    from .fringe2 import top_code_params

    if args.k_min < 1 or args.k_max < args.k_min:
        raise DataError("need 1 <= k-min <= k-max")
    _check_rows("k", args.k_min, args.k_max)
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
    _check_rows("s", args.s_min, args.s_max)
    codec = make_codec(CodeFamily("cminus", args.k))
    rows = ["   s  base_len  n_at_base  n_at_base+1"]
    for s in range(args.s_min, args.s_max + 1):
        (lam, n_short), (_, n_long) = codec.signature_lengths(s)
        rows.append(f"{s:4d}  {lam:8d}  {n_short:9d}  {n_long:11d}")
    _write_text(args.out, "".join(r + "\n" for r in rows))
    return 0


def _check_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:  # also rejects nan
        raise DataError(f"{name} must lie in (0, 1), got {value}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # also rejects nan
        raise DataError(f"{name} must be positive and finite, got {value}")


def _grid(lo: float, hi: float, step: float) -> list[float]:
    end = hi + 1e-12
    if (end - lo) / step >= MAX_ROWS:  # checked before the grid is built
        raise DataError(f"step {step} over [{lo}, {hi}] makes more than {MAX_ROWS} grid points")
    out = []
    n = 0
    while True:
        q = lo + n * step
        if q > end:
            break
        out.append(round(q, 12))
        n += 1
    return out


def cmd_sweep(args) -> int:
    from . import analysis
    from .oracle import oracle_optimal_avg_len

    if not (0.0 < args.q_lo <= args.q_hi < 1.0):
        raise DataError("need 0 < q-lo <= q-hi < 1")
    _check_positive("step", args.step)
    _check_unit("eps", args.eps)
    grid = _grid(args.q_lo, args.q_hi, args.step)
    for name, bound, point in (("q-lo", args.q_lo, grid[0]), ("q-hi", args.q_hi, grid[-1])):
        if not 0.0 < point < 1.0:  # the grid rounds its points to 12 decimals
            raise DataError(f"{name} {bound} gives the grid point {point} at 12 decimals, "
                            "outside (0, 1)")
    lines = ["q,entropy,opt_est,red_golomb_best,red_ck_best,red_cminus_best,red_limit"]
    best = analysis.best_averages_by_kind(grid, args.eps)
    for q, averages in zip(grid, best):  # golomb, ck, cminus, limit
        ent = analysis.entropy_per_symbol(q)
        opt = ""
        if args.with_oracle and q <= ORACLE_Q_CAP:
            est, _ = oracle_optimal_avg_len(q, args.eps)
            opt = f"{analysis.redundancy_per_symbol(est, q):.6f}"
        reds = [f"{analysis.redundancy_per_symbol(avg, q):.6f}" for avg in averages]
        lines.append(",".join([f"{q:.6f}", f"{ent:.6f}", opt, *reds]))
    _write_text(args.out, "".join(line + "\n" for line in lines))
    return 0


def cmd_oracle(args) -> int:
    from .oracle import DEFAULT_SYMBOL_CAP, oracle_optimal_avg_len

    if args.cap is not None and args.cap < 1:
        raise DataError(f"cap must be at least 1 symbol, got {args.cap}")
    _check_unit("q", args.q)
    if args.q > ORACLE_Q_CAP:
        raise DataError(f"oracle runs are capped at q <= {ORACLE_Q_CAP}")
    _check_unit("eps", args.eps)
    cap = DEFAULT_SYMBOL_CAP if args.cap is None else args.cap
    est, unc = oracle_optimal_avg_len(args.q, args.eps, cap)
    print(f"{est:.6f} ± {unc:.2e}")
    return 0


def _family_from_name(name: str) -> CodeFamily:
    """``limit``, or a family kind followed by its order (``ck3``, ``cminus2``, ``golomb5``)."""
    if name == "limit":
        return CodeFamily("limit")
    kind = name.rstrip("0123456789")
    if kind not in ("ck", "cminus", "golomb") or kind == name:
        raise DataError(f"unknown model {name!r}: use limit, ck<k>, cminus<k> or golomb<k>")
    digits = len(name) - len(kind)
    try:
        k = int(name[len(kind):])
    except ValueError:  # more digits than the interpreter's int-string limit
        raise DataError(f"model {kind}<k> has a k of {digits} digits, "
                        f"more than the limit of {sys.get_int_max_str_digits()}") from None
    if kind != "cminus" and k + 1 > sys.float_info.max:  # the closed forms take k + 1 as a float
        raise DataError(f"model {kind}<k> has a k of {digits} digits, "
                        f"beyond the float range of its closed form")
    return CodeFamily(kind, k)


def cmd_crossover(args) -> int:
    from . import analysis

    if not 0.0 < args.q_lo < args.q_hi < 1.0:
        raise DataError("need 0 < q-lo < q-hi < 1")
    _check_positive("tol", args.tol)
    family_a = _family_from_name(args.model_a)
    family_b = _family_from_name(args.model_b)
    if family_a == family_b:
        raise DataError(
            f"model-a and model-b are both {family_a.label()}: one family does not cross itself"
        )
    q_star = analysis.crossover(
        lambda q: analysis.family_avg_len(family_a, q),
        lambda q: analysis.family_avg_len(family_b, q),
        args.q_lo, args.q_hi, args.tol,
    )
    print(f"{q_star:.5f}")
    return 0


def cmd_select(args) -> int:
    from . import analysis

    print(analysis.adaptive_select(args.mean).label())
    return 0


class Option(namedtuple("Option", "flag type default required choices help",
                        defaults=(str, None, False, None, None))):
    """One argument of a command: ``--flag value``, a ``--flag`` switch
    when ``type`` is bool, or the optional positional when ``flag`` has
    no leading dashes."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


Command = namedtuple("Command", "func help options")

_OUT = Option("--out", default="-")
_MODEL_HELP = "limit, ck<k>, cminus<k> or golomb<k>"

# The one grammar of the CLI.  ``_scan`` parses its canonical spellings;
# argparse, built from it by ``build_parser``, parses everything else.
COMMANDS = {
    "encode": Command(cmd_encode, "encode integer pairs to a container file", (
        Option("input", default="-", help="text file of integers ('-' = stdin)"),
        Option("--family", required=True, choices=tuple(FAMILY_BYTES)),
        Option("--k", int),
        _OUT,
    )),
    "decode": Command(cmd_decode, "decode a container file to integer pairs", (
        Option("input", default="-"),
        _OUT,
    )),
    "params": Command(cmd_params, "top-code parameter table", (
        Option("--k-min", int, 2),
        Option("--k-max", int, 10),
        _OUT,
    )),
    "lengths": Command(cmd_lengths, "per-signature length table", (
        Option("--k", int, required=True),
        Option("--s-min", int, 0),
        Option("--s-max", int, required=True),
        _OUT,
    )),
    "sweep": Command(cmd_sweep, "redundancy sweep CSV", (
        Option("--q-lo", float, 0.05),
        Option("--q-hi", float, 0.95),
        Option("--step", float, 0.05),
        Option("--eps", float, 1e-9),
        Option("--with-oracle", bool, False),
        _OUT,
    )),
    "oracle": Command(cmd_oracle, "truncated-Huffman optimal-length estimate", (
        Option("--q", float, required=True),
        Option("--eps", float, 1e-9),
        Option("--cap", int, help="symbol cap (default: the oracle's)"),
    )),
    "crossover": Command(cmd_crossover, "bisect two families' average lengths", (
        Option("--model-a", default="limit", help=_MODEL_HELP),
        Option("--model-b", default="ck1", help=_MODEL_HELP),
        Option("--q-lo", float, 0.25),
        Option("--q-hi", float, 0.45),
        Option("--tol", float, 1e-6),
    )),
    "select": Command(cmd_select, "best family for a sample mean", (
        Option("--mean", float, required=True),
    )),
}


def _is_value(token: str) -> bool:
    return token == "-" or not token.startswith("-")


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` parsed from ``COMMANDS`` without argparse, or None.

    Only the canonical spellings parse here: the command, at most one
    positional right after it, then ``--option value`` and ``--flag`` with
    exact option names, each value converted by its type and checked
    against its choices, and every required option given.  Anything else
    (help, ``--opt=value``, abbreviations, a value starting with ``-``,
    any usage error) gives None, for argparse to parse or reject.  Where
    both parse, the attributes are argparse's.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    args = {"command": argv[0], "func": command.func}
    options = {}
    positional = None
    for opt in command.options:
        args[opt.dest] = opt.default
        if opt.flag.startswith("-"):
            options[opt.flag] = opt
        else:
            positional = opt
    tokens = argv[1:]
    if positional is not None and tokens and _is_value(tokens[0]):
        args[positional.dest] = tokens.pop(0)
    given = set()
    while tokens:
        opt = options.get(tokens.pop(0))
        if opt is None:
            return None
        given.add(opt.flag)
        if opt.type is bool:
            args[opt.dest] = True
            continue
        if not tokens or not _is_value(tokens[0]):
            return None
        try:
            value = opt.type(tokens.pop(0))
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        args[opt.dest] = value
    if any(opt.required and flag not in given for flag, opt in options.items()):
        return None
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser of ``COMMANDS``: the reference grammar, and the
    one that prints help and usage errors.  argparse is imported here, so
    that a command line ``_scan`` parses never loads it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # usage problems exit 1, not argparse's 2
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    class CommandParser(Parser):
        def parse_known_args(self, args=None, namespace=None):
            # a command's unknown arguments get its usage, not the program's
            args, extra = super().parse_known_args(args, namespace)
            if extra:
                self.error(f"unrecognized arguments: {' '.join(extra)}")
            return args, extra

    parser = Parser(prog="geompair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CommandParser)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for opt in command.options:
            if opt.type is bool:
                cmd.add_argument(opt.flag, action="store_true", help=opt.help)
                continue
            arity = {"required": opt.required} if opt.flag.startswith("-") else {"nargs": "?"}
            cmd.add_argument(opt.flag, type=opt.type, default=opt.default, choices=opt.choices,
                             help=opt.help, **arity)
        cmd.set_defaults(func=command.func)
    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code: 0 ok, 1 usage error, 2 data error.

    ``main()`` with no argument list runs ``sys.argv`` as the program and
    does not return: once the command has finished and the standard
    streams are flushed, it ends the process with ``os._exit``, skipping
    interpreter teardown and ``atexit`` callbacks.  If a stream is None or
    closed, or its flush fails, it returns the code instead, and the
    interpreter's own exit deals with the streams: it reports a failed
    flush and exits 120.
    """
    if argv is not None:
        return _run(list(argv))
    code = _run(sys.argv[1:])
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, ValueError, OSError):  # a stream None or closed, or its flush failed
        return code
    os._exit(code)


def _run(argv: list[str]) -> int:
    args = _scan(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (DataError, OSError) as exc:  # the library's refusals of input are DataErrors
        print(f"geompair: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
