import gc
import io
import os
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from child import run_child
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_theory import lengths_by_signature

import geompair
from geompair import analysis
from geompair.bitio import BitReader
from geompair.cli import COMMANDS, HEADER, MAGIC, ParseError, _scan, _tokens, build_parser, main
from geompair.families import FAMILY_FROM_BYTE, CodeFamily, DataError, InvalidFamilyParam, make_codec
from geompair.oracle import (SourceTooLarge, WeightUnderflow, build_truncated_source,
                             oracle_optimal_avg_len, truncated_huffman)

DATA = Path(__file__).parent / "data"
SWEEP_HEADER = "q,entropy,opt_est,red_golomb_best,red_ck_best,red_cminus_best,red_limit"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_encode_header_and_payload(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("2 1\n")
    out = tmp_path / "out.bin"
    code, _, _ = run(capsys, "encode", str(src), "--family", "ck", "--k", "1", "--out", str(out))
    assert code == 0
    blob = out.read_bytes()
    assert blob[:4] == MAGIC
    magic, version, family, k, count = HEADER.unpack_from(blob)
    assert (version, family, k, count) == (1, 1, 1, 1)
    assert blob[HEADER.size:] == bytes([0b11010000])


def test_encode_limit_example(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("0 0")
    out = tmp_path / "out.bin"
    code, _, _ = run(capsys, "encode", str(src), "--family", "limit", "--out", str(out))
    assert code == 0
    assert out.read_bytes()[HEADER.size:] == bytes([0x00])


@pytest.mark.parametrize(
    "family,k",  # cminus 1074 is select's pick at the least positive mean, 5e-324
    [("ck", 1), ("ck", 3), ("cminus", 2), ("cminus", 4), ("cminus", 1074), ("limit", 0), ("golomb", 2)],
)
def test_encode_decode_roundtrip(tmp_path, capsys, family, k):
    tokens = "0 0 7 3 12 0 1 99 40 41 5 5"
    src = tmp_path / "in.txt"
    src.write_text(tokens + "\n")
    enc = tmp_path / "enc.bin"
    args = ["encode", str(src), "--family", family, "--out", str(enc)]
    if family != "limit":
        args += ["--k", str(k)]
    code, _, _ = run(capsys, *args)
    assert code == 0
    code, out, _ = run(capsys, "decode", str(enc))
    assert code == 0
    assert out.split() == tokens.split()


def test_odd_symbol_count(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("1 2 3")
    code, _, err = run(capsys, "encode", str(src), "--family", "ck", "--k", "1")
    assert code == 2
    assert "pairs" in err


def test_parse_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("3 x")
    code, _, err = run(capsys, "encode", str(src), "--family", "ck", "--k", "1")
    assert code == 2
    assert "'x'" in err


def test_every_ascii_separator_of_str_split_separates_tokens(tmp_path, capsys):
    # \x1c-\x1f are the ASCII separators str.split() splits on besides the usual five
    src, enc, ref = tmp_path / "in.txt", tmp_path / "enc.bin", tmp_path / "ref.bin"
    src.write_text("4 1 0 0 9 2")
    reference = run(capsys, "encode", str(src), "--family", "ck", "--k", "3", "--out", str(ref))
    src.write_bytes(b"4\x1c1\x1d0\x1e0\x1f9\x0b2\x0c")
    assert run(capsys, "encode", str(src), "--family", "ck", "--k", "3", "--out", str(enc)) == reference
    assert reference[0] == 0 and enc.read_bytes() == ref.read_bytes()
    for data, message in [
        (b"4\x1c1\x1d0\x1e0\x1f9 2x\n", "token '2x' at position 5 is not a nonnegative integer"),
        (b"4\x1c1\x1d0\x1e0\x1f\x1c-9 2", "token '-9' at position 4 is not a nonnegative integer"),
        (b"4\x1c1\x1d0\x1e0\x1f9\x1c", "5 integers do not form pairs"),
        (b"4\x1c1\x1d0\x1e0\x1f" + b"7" * 5000, "token at position 4 has 5000 digits, "
                                              "more than the limit of 4300"),
    ]:
        src.write_bytes(data)
        code, out, err = run(capsys, "encode", str(src), "--family", "ck", "--k", "3")
        assert (code, out, err) == (2, "", f"geompair: {message}\n")


SEPARATORS = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003"


@given(st.text(alphabet=st.sampled_from("0123456789x-+_.\x00\x7f\u00b2\u0661\uff11" + SEPARATORS)))
@settings(max_examples=300, deadline=None)
def test_tokens_check_agrees_with_a_per_token_check(text):
    # the one-pass check of the whole text must reject exactly what checking each token rejects
    tokens = text.split()
    bad = [n for n, token in enumerate(tokens) if not token.isdecimal()]
    if bad:
        with pytest.raises(ParseError, match=f"at position {bad[0]} is not"):
            _tokens(text)
    else:
        assert _tokens(text) == tokens


def test_non_ascii_input_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes("1 é".encode("utf-8"))
    code, _, err = run(capsys, "encode", str(src), "--family", "ck", "--k", "1")
    assert code == 2
    assert "not ASCII" in err


@pytest.mark.parametrize("data", ["\uff11 2\n".encode("utf-8"), "1 \u00e9".encode("latin-1")])
def test_non_ascii_stdin_is_rejected_as_a_file_is(tmp_path, capsys, monkeypatch, data):
    import io

    # the fullwidth digit '１' is one that int() would read as 1
    src = tmp_path / "in.txt"
    src.write_bytes(data)
    out_path = tmp_path / "out.bin"
    from_file = run(capsys, "encode", str(src), "--family", "ck", "--k", "1", "--out", str(out_path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    from_stdin = run(capsys, "encode", "-", "--family", "ck", "--k", "1", "--out", str(out_path))
    assert from_stdin == from_file
    code, out, err = from_stdin
    assert (code, out) == (2, "")
    assert err.startswith("geompair: input is not ASCII text: ")
    assert not out_path.exists()


def test_non_decimal_digit_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # '²' passes str.isdigit but int() rejects it.  Input is ASCII-checked
    # first, so the text goes past the reader to reach the parser.
    monkeypatch.setattr("geompair.cli._read_text", lambda path: "1 \u00b2")
    code, _, err = run(capsys, "encode", "-", "--family", "ck", "--k", "1")
    assert code == 2
    assert "position 1" in err


def test_bad_magic(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(12))
    code, _, err = run(capsys, "decode", str(bad))
    assert code == 2
    assert "magic" in err


def test_trailing_garbage(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("2 1")
    enc = tmp_path / "enc.bin"
    run(capsys, "encode", str(src), "--family", "ck", "--k", "1", "--out", str(enc))
    blob = enc.read_bytes()
    enc.write_bytes(blob + b"\xff")
    code, _, err = run(capsys, "decode", str(enc))
    assert code == 2
    enc.write_bytes(blob[:-1] + bytes([blob[-1] | 1]))  # nonzero pad bit
    code, _, err2 = run(capsys, "decode", str(enc))
    assert code == 2


def test_trailing_bytes_name_their_payload_bit(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("2 1 0 0 5 3")  # ck k=1 codewords of 5, 2 and 10 bits
    enc = tmp_path / "enc.bin"
    run(capsys, "encode", str(src), "--family", "ck", "--k", "1", "--out", str(enc))
    enc.write_bytes(enc.read_bytes() + b"\x00")  # 7 padding bits and a stray byte
    code, out, err = run(capsys, "decode", str(enc))
    assert code == 2
    assert out == ""
    assert err == "geompair: 15 bits beyond final pair, starting at payload bit 17\n"


def test_nonzero_padding_names_its_payload_bit(tmp_path, capsys, monkeypatch):
    # with 9-byte windows, the streams of 65 bits and more end past the
    # first window, and the padding check reads a window that starts at
    # the padding's byte
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", 9)
    enc = tmp_path / "enc.bin"
    for nbits in (n for n in range(17, 90) if n % 8):
        count = (nbits - 2) // 5
        pairs = [(1, 2)] * count + [(nbits - 5 * count - 2, 0)]  # ck k=1: 5-bit codewords, then the rest
        payload, written = make_codec(CodeFamily("ck", 1)).encode_many(pairs)
        assert written == nbits
        enc.write_bytes(_container(payload, len(pairs), k=1))
        assert run(capsys, "decode", str(enc)) == (0, "1 2\n" * count + f"{pairs[-1][0]} 0\n", "")
        for bit in range(-nbits % 8):  # each padding bit set alone
            enc.write_bytes(_container(payload[:-1] + bytes([payload[-1] | 1 << bit]), len(pairs), k=1))
            assert run(capsys, "decode", str(enc)) == (
                2, "", f"geompair: nonzero padding bits, starting at payload bit {nbits}\n")


def test_invalid_family_param(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("1 2")
    code, _, err = run(capsys, "encode", str(src), "--family", "cminus", "--k", "1")
    assert code == 2
    assert "cminus" in err


@pytest.mark.parametrize("family", ["ck", "cminus", "golomb"])
def test_encode_k_above_the_header_field_exits_2_before_reading(tmp_path, capsys, family):
    src = tmp_path / "in.txt"
    src.write_text("1 2\n")
    out_path = tmp_path / "out.bin"
    code, out, err = run(capsys, "encode", str(src), "--family", family, "--k", "65536",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "65535" in err
    assert not out_path.exists()
    # to stdout, and with an input that is never read
    code, out, err = run(capsys, "encode", str(tmp_path / "missing.txt"), "--family", family,
                         "--k", "65536")
    assert (code, out) == (2, "")
    assert "65535" in err


@pytest.mark.parametrize("family", [["limit"], ["cminus", "--k", "2"], ["ck", "--k", "3"],
                                    ["golomb", "--k", "3"]])
def test_encode_of_a_pair_too_large_to_encode_exits_2(tmp_path, family):
    # limit and cminus overflow a shift count, ck and golomb fail to allocate
    src = tmp_path / "in.txt"
    src.write_text("99999999999999999999 0\n")
    out_path = tmp_path / "out.bin"
    child = run_child("-m", "geompair.cli", "encode", str(src), "--family", *family,
                       "--out", str(out_path), timeout=20)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("geompair: a pair's codeword is too long to encode")
    assert "Traceback" not in child.stderr
    assert not out_path.exists()


@pytest.mark.parametrize("digits, message", [
    (4000, "a pair's codeword is too long to encode (OverflowError)"),
    (5000, "token at position 3 has 5000 digits, more than the limit of "
           f"{sys.get_int_max_str_digits()}"),
])
def test_encode_of_a_token_of_thousands_of_digits_exits_2(tmp_path, capsys, digits, message):
    # past the interpreter's int-string limit (4300 digits by default) int()
    # refuses the token; the error names its position and size, not the token
    src = tmp_path / "in.txt"
    src.write_text("1 2 0 " + "9" * digits + "\n")
    out_path = tmp_path / "out.bin"
    code, out, err = run(capsys, "encode", str(src), "--family", "ck", "--k", "3",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"geompair: {message}\n"
    assert not out_path.exists()


# above mean 94547 the best ck and Golomb orders pass the header's k limit,
# and select picks the better of the two capped at it
SELECT_AT_THE_CAP = {"1e5": "ck k=65535\n", "1e6": "golomb k=65535\n"}


@pytest.mark.parametrize("mean", SELECT_AT_THE_CAP)
def test_select_names_a_family_that_encode_accepts(tmp_path, capsys, mean):
    code, out, _ = run(capsys, "select", "--mean", mean)
    assert (code, out) == (0, SELECT_AT_THE_CAP[mean])
    family = analysis.adaptive_select(float(mean))
    src = tmp_path / "in.txt"
    src.write_text("1 2 100000 0\n")
    code, _, err = run(capsys, "encode", str(src), "--family", family.kind, "--k", str(family.k),
                       "--out", str(tmp_path / "out.bin"))
    assert code == 0, err


def test_encode_k_at_the_header_field_maximum(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("1 2 70000 0\n")
    enc = tmp_path / "out.bin"
    code, _, err = run(capsys, "encode", str(src), "--family", "golomb", "--k", "65535",
                       "--out", str(enc))
    assert code == 0, err
    code, out, err = run(capsys, "decode", str(enc))
    assert code == 0, err
    assert out == "1 2\n70000 0\n"


PARAM_ROWS = {
    2: ((2, 0, 0, 0, 0), (0, 4, 0)),
    3: ((3, 0, 0, 1, 1), (0, 7, 2)),
    4: ((4, 1, 0, 0, 1), (1, 13, 2)),
    5: ((5, 3, 1, 0, 0), (7, 18, 0)),
    6: ((5, 1, 0, 1, 5), (1, 25, 10)),
    7: ((6, 5, 0, 0, 0), (15, 34, 0)),
    8: ((6, 2, 2, 0, 5), (5, 49, 10)),
    9: ((6, 0, 0, 1, 17), (0, 47, 34)),
    10: ((7, 7, 1, 0, 1), (29, 69, 2)),
}


def test_params_table(capsys):
    code, out, _ = run(capsys, "params", "--k-min", "2", "--k-max", "10")
    assert code == 0
    rows = {}
    for line in out.splitlines()[1:]:
        fields = line.replace("(", " ").replace(")", " ").split()
        k = int(fields[0])
        rows[k] = (
            tuple(int(x) for x in fields[1:6]),
            tuple(int(x) for x in fields[6].split(",")),
        )
    assert rows == PARAM_ROWS


def test_params_k1_notice(capsys):
    code, out, _ = run(capsys, "params", "--k-min", "1", "--k-max", "1")
    assert code == 0
    assert "unary" in out


def test_lengths_table(capsys):
    code, out, _ = run(capsys, "lengths", "--k", "3", "--s-max", "3")
    assert code == 0
    rows = [tuple(int(x) for x in line.split()) for line in out.splitlines()[1:]]
    assert rows[3] == (3, 7, 3, 1)
    assert all(r[2] + r[3] == r[0] + 1 for r in rows)
    code, _, _ = run(capsys, "lengths", "--k", "1", "--s-max", "2")
    assert code == 2


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--q-lo", "0.5", "--q-hi", "0.5",
                       "--step", "0.05", "--with-oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "0.500000"
    assert fields[1] == "2.000000"
    assert fields[4] == "0.000000"  # zero redundancy of the k=1 code at q = 1/2
    assert abs(float(fields[2])) < 1e-5


def test_sweep_default_csv_is_golden(capsys):
    code, out, _ = run(capsys, "sweep")
    assert code == 0
    assert out == (DATA / "sweep_default.csv").read_text()


def test_sweep_near_1_csv_is_golden(capsys):
    # ten rows up to mean 99999, each a closed form in every column
    start = time.perf_counter()
    code, out, _ = run(capsys, "sweep", "--q-lo", "0.9999", "--q-hi", "0.99999", "--step", "0.00001")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert out == (DATA / "sweep_near1.csv").read_text()


@pytest.mark.parametrize("argv, labels", [
    (["--q-lo", "0.9999999", "--q-hi", "0.9999999"], ["0.9999999"]),
    (["--q-lo", "0.5", "--q-hi", "0.5000005", "--step", "0.0000001"], [f"0.500000{i}" for i in range(6)]),
    (["--q-lo", "0.3", "--q-hi", "0.300000000003", "--step", "1e-12"], [f"0.30000000000{i}" for i in range(4)]),
    (["--q-lo", "0.25", "--q-hi", "0.75", "--step", "0.25"], ["0.250000", "0.500000", "0.750000"]),
    (["--q-lo", "0.5", "--q-hi", "0.5", "--step", "1e-13"], ["0.500000"]),
    (["--q-lo", "0.5", "--q-hi", "0.500000000003", "--step", "4e-13"],
     [f"0.50000000000{i}" for i in range(4)])])
def test_sweep_labels_tell_the_grid_points_apart_and_from_1(capsys, argv, labels):
    # the fewest decimals from 6 that do, up to the 12 that the grid rounds to;
    # a step below those 12 walks several points onto one rounded value, each
    # kept once, and none past q-hi's own rounded value
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == labels


def test_sweep_oracle_column_empty_without_flag(capsys):
    code, out, _ = run(capsys, "sweep", "--q-lo", "0.3", "--q-hi", "0.3", "--step", "0.1")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == ""


@pytest.mark.parametrize("q_lo, q_hi, message", [
    ("1e-13", "0.05", "q-lo 1e-13 gives the grid point 0.0"),
    ("0.9999999999999", "0.9999999999999", "q-lo 0.9999999999999 gives the grid point 1.0"),
    ("0.5", "0.9999999999999", "q-hi 0.9999999999999 gives the grid point 1.0")])
def test_sweep_bound_that_the_grid_rounds_out_of_range_exits_2(capsys, q_lo, q_hi, message):
    # the grid rounds its points to 12 decimals; the refusal names the bound given
    code, out, err = run(capsys, "sweep", "--q-lo", q_lo, "--q-hi", q_hi, "--step", "0.4999999999999")
    assert (code, out, err) == (2, "", f"geompair: {message} at 12 decimals, outside (0, 1)\n")


@pytest.mark.parametrize(
    "argv, message",
    [(["sweep", "--q-lo", "0.5", "--q-hi", "0.5", "--step", "nan"], "step must be positive and finite"),
     (["sweep", "--step", "inf"], "step must be positive and finite"),
     (["sweep", "--step", "-0.5"], "step must be positive and finite"),
     (["sweep", "--step", "0"], "step must be positive and finite"),
     (["sweep", "--q-lo", "0.5", "--q-hi", "0.5", "--step", "1e-300"], "more than 1000000 grid points"),
     (["sweep", "--step", "1e-7"], "more than 1000000 grid points"),
     (["crossover", "--tol", "nan"], "tol must be positive and finite"),
     (["crossover", "--tol", "inf"], "tol must be positive and finite"),
     (["crossover", "--tol", "-1"], "tol must be positive and finite")],
)
def test_bad_step_and_tol_exit_2_promptly(argv, message):
    # in a child, so that a grid or bisection that never ends fails the test
    child = run_child("-m", "geompair.cli", *argv, timeout=10)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("geompair: ") and message in child.stderr


@pytest.mark.parametrize("argv", [["lengths", "--k", "3", "--s-max", "1000000000000"],
                                  ["lengths", "--k", "3", "--s-min", "5", "--s-max", "1000005"],
                                  ["params", "--k-max", "1000000000"]])
def test_oversized_tables_exit_2_promptly(argv):
    # in a child, so that a table built row by row fails the test by its timeout
    child = run_child("-m", "geompair.cli", *argv, timeout=10)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("geompair: ") and "more than 1000000 rows" in child.stderr


def test_select(capsys):
    code, out, _ = run(capsys, "select", "--mean", "1.0")
    assert code == 0
    assert out.strip() == "ck k=1"


@pytest.mark.parametrize("mean", ["nan", "inf", "1e16"])
def test_select_rejects_means_without_an_estimate(capsys, mean):
    code, out, err = run(capsys, "select", "--mean", mean)
    assert code == 2
    assert out == ""
    assert err.startswith("geompair: mean ")
    assert "q=" not in err  # the message is about the mean the user gave


def test_select_negative_mean_exits_2(capsys):
    code, out, err = run(capsys, "select", "--mean", "-1")
    assert code == 2
    assert out == ""
    assert "mean must be finite and >= 0" in err


def test_select_huge_mean_is_prompt():
    # the Golomb order here is about 6.9e11: a search linear in it takes hours
    start = time.perf_counter()
    child = run_child("-m", "geompair.cli", "select", "--mean", "1e12")
    assert time.perf_counter() - start < 5.0
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("golomb k=")


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--q", "0.5", "--eps", "1e-9")
    assert code == 0
    assert out.startswith("4.000000 ±")
    # above q = 0.95 too, the library's value
    assert run(capsys, "oracle", "--q", "0.99") == (0, "16.187434 ± 3.20e-08\n", "")
    est, unc = oracle_optimal_avg_len(0.99, 1e-9)
    assert f"{est:.6f} ± {unc:.2e}" == "16.187434 ± 3.20e-08"
    # q = 0.98 at eps = 1e-9 truncates at S = 1184, in 1186 runs
    assert run(capsys, "oracle", "--q", "0.98", "--cap", "1186")[:2] == (0, "14.172895 ± 3.20e-08\n")
    assert run(capsys, "oracle", "--q", "0.98", "--cap", "1185") == (
        2, "", "geompair: truncation at S=1184 exceeds cap of 1185 runs\n")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_cap_below_one_symbol_exits_2(capsys, cap):
    # q = 0.01 at eps = 0.9 keeps one symbol and the tail (S = 0), in 2 runs:
    # a cap below 2 is exceeded, a cap below one symbol too
    for below in (cap, "1"):
        code, out, err = run(capsys, "oracle", "--q", "0.01", "--eps", "0.9", "--cap", below)
        assert code == 2
        assert out == ""
        assert err == f"geompair: truncation at S=0 exceeds cap of {below} runs\n"
    code, out, _ = run(capsys, "oracle", "--q", "0.01", "--eps", "0.9", "--cap", "2")
    assert code == 0
    assert out == "1.000000 ± 2.70e+00\n"


def test_crossover_command(capsys):
    code, out, _ = run(capsys, "crossover")
    assert code == 0
    assert out.strip() == "0.33715"


def test_crossover_takes_any_family(capsys):
    # cminus k=2 against ck k=1 was outside the command's original three models
    code, out, _ = run(capsys, "crossover", "--model-a", "cminus2", "--model-b", "ck1",
                       "--q-lo", "0.25", "--q-hi", "0.45")
    assert code == 0
    want = analysis.crossover(
        lambda q: analysis.family_avg_len(CodeFamily("cminus", 2), q),
        lambda q: analysis.family_avg_len(CodeFamily("ck", 1), q),
        0.25, 0.45, 1e-6,
    )
    assert out.strip() == f"{want:.5f}"
    code, out, _ = run(capsys, "crossover", "--model-a", "golomb1", "--model-b", "golomb2",
                       "--q-lo", "0.5", "--q-hi", "0.7")
    assert code == 0
    assert out.strip() == "0.61803"  # the golden-ratio boundary of the Golomb orders


def test_crossover_of_a_huge_cminus_order_is_prompt(capsys):
    # cminus at a huge k codes every small signature as the limit code does, and
    # avg_len_cminus stops its t-sum long before such a k's periodic regime
    start = time.perf_counter()
    code, out, err = run(capsys, "crossover", "--model-a", "cminus99999999", "--model-b", "ck1")
    assert time.perf_counter() - start < 2.0
    assert code == 0, err
    assert out.strip() == "0.33715"
    # an order of 4000 digits crosses ck1 where the limit code does, in a child
    # so that a sum that never ends fails the test by its timeout
    argv = ["crossover", "--model-b", "ck1", "--q-lo", "0.1", "--q-hi", "0.9"]
    assert run(capsys, *argv, "--model-a", "limit") == (0, "0.33715\n", "")
    start = time.perf_counter()
    child = run_child("-m", "geompair.cli", *argv, "--model-a", "cminus" + "9" * 4000, timeout=10)
    assert time.perf_counter() - start < 2.0
    assert (child.returncode, child.stdout, child.stderr) == (0, "0.33715\n", "")


@pytest.mark.parametrize(
    "argv",
    [["oracle", "--q", "0.5", "--eps", "0"], ["oracle", "--q", "0.5", "--eps", "2"],
     ["oracle", "--q", "0.5", "--eps", "nan"], ["sweep", "--eps", "0"],
     ["sweep", "--with-oracle", "--eps", "1.5"]],
)
def test_eps_outside_unit_interval_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("geompair: eps ")


@pytest.mark.parametrize("q, message", [
    ("0", "q must lie in (0, 1), got 0.0"), ("-1", "q must lie in (0, 1), got -1.0"),
    ("nan", "q must lie in (0, 1), got nan"), ("inf", "q must lie in (0, 1), got inf"),
    ("1", "q must lie in (0, 1), got 1.0"),
    ("0.9999", "truncation at S=32767 exceeds cap of 32768 runs"),
])
def test_oracle_q_outside_its_range_exits_2(capsys, q, message):
    code, out, err = run(capsys, "oracle", "--q", q)
    assert (code, out, err) == (2, "", f"geompair: {message}\n")


def test_sweep_oracle_beyond_its_run_cap_exits_2(capsys):
    # q = 0.9999 truncates past the 2^15 runs of the oracle's cap; the sweep
    # writes none of its rows, not even the one of q = 0.99, which fits
    code, out, err = run(capsys, "sweep", "--with-oracle", "--q-lo", "0.99", "--q-hi", "0.9999",
                         "--step", "0.0099")
    assert code == 2
    assert out == ""
    assert err == "geompair: truncation at S=32767 exceeds cap of 32768 runs\n"


def test_oracle_of_weights_that_underflow_exits_2(capsys):
    # at eps = 5e-324 the truncation keeps signatures whose weight q^s is 0
    assert run(capsys, "oracle", "--q", "0.3", "--eps", "5e-324") == (
        2, "", "geompair: truncation at S=618 for q=0.3 and eps=5e-324 has weights that underflow to 0\n")


@pytest.mark.parametrize("option", ["--model-a", "--model-b"])
@pytest.mark.parametrize("kind", ["ck", "cminus", "golomb"])
def test_crossover_model_of_more_digits_than_int_takes_exits_2(capsys, option, kind):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "crossover", option, kind + "7" * (limit + 700)) == (
        2, "", f"geompair: model {kind}<k> has a k of {limit + 700} digits, more than the limit of {limit}\n")


def test_crossover_same_family_twice_exits_2(capsys):
    code, out, err = run(capsys, "crossover", "--model-a", "ck3", "--model-b", "ck3")
    assert code == 2
    assert out == ""
    assert "both ck k=3" in err


@pytest.mark.parametrize("model_a, model_b, q_lo, q_hi", [
    ("golomb1", "ck1", "0.25", "0.45"), ("golomb1", "ck1", "0.3", "0.9"), ("ck1", "golomb1", "0.1", "0.2"),
    ("golomb2", "ck2", "0.25", "0.45"), ("golomb2", "ck2", "0.1", "0.3")])
def test_crossover_of_curves_equal_to_within_rounding_exits_2(capsys, model_a, model_b, q_lo, q_hi):
    # golomb1 and ck1 are both two unary codes, and golomb2 and ck2 have the same
    # lengths: their closed forms differ by rounding alone, which crosses nothing
    assert run(capsys, "crossover", "--model-a", model_a, "--model-b", model_b,
               "--q-lo", q_lo, "--q-hi", q_hi) == (
        2, "", f"geompair: no crossing on [{q_lo}, {q_hi}]: the curves agree at both ends\n")


@pytest.mark.parametrize(
    "argv",
    [["--model-a", "bogus"], ["--model-b", "ck"], ["--model-a", "limit2"],
     ["--model-a", "ck0"], ["--model-b", "cminus1"], ["--model-a", "ck\u00b2"],
     ["--q-hi", "1.5"], ["--q-lo", "0.4", "--q-hi", "0.3"], ["--tol", "0"]],
)
def test_crossover_rejects_bad_models_and_ranges(capsys, argv):
    code, out, err = run(capsys, "crossover", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("geompair: ")


def test_every_library_refusal_is_a_data_error():
    refusals = [InvalidFamilyParam, analysis.QOutOfRange, analysis.MeanOutOfRange,
                analysis.NoSignChange, SourceTooLarge, WeightUnderflow]
    assert all(issubclass(cls, DataError) for cls in refusals)
    assert all(issubclass(cls, ValueError)
               for cls in (InvalidFamilyParam, analysis.QOutOfRange, analysis.MeanOutOfRange))


@pytest.mark.parametrize("model_a, model_b, q_lo, q_hi, want", [
    ("limit", "ck2", "0.2", "0.6", "0.44636\n"), ("ck3", "ck4", "0.7", "0.9", "0.81917\n"),
    ("cminus2", "ck1", "0.25", "0.45", "0.38320\n")])
def test_crossover_tol_below_the_float_spacing_ends(capsys, model_a, model_b, q_lo, q_hi, want):
    argv = ["crossover", "--model-a", model_a, "--model-b", model_b, "--q-lo", q_lo, "--q-hi", q_hi]
    assert run(capsys, *argv) == (0, want, "")  # at the default tol
    # in a child, so that a bisection that never ends fails the test by its timeout
    start = time.perf_counter()
    child = run_child("-m", "geompair.cli", *argv, "--tol", "1e-300", timeout=10)
    assert time.perf_counter() - start < 2.0
    assert (child.returncode, child.stdout, child.stderr) == (0, want, "")


@pytest.mark.parametrize("argv, lines", [
    (["crossover", "--model-a", "cminus2", "--model-b", "ck1", "--q-lo", "0.1", "--q-hi", "0.999999"],
     ["0.38320"]),
    (["sweep", "--q-lo", "0.9999999", "--q-hi", "0.9999999"], [SWEEP_HEADER, "0.9999999,"])])
def test_crossover_and_sweep_near_q_1_exit_0_promptly(argv, lines):
    # every cminus average is a closed form, summed in a few dozen terms at any q
    start = time.perf_counter()
    child = run_child("-m", "geompair.cli", *argv, timeout=10)
    assert time.perf_counter() - start < 2.0
    assert (child.returncode, child.stderr) == (0, "")
    out = child.stdout.splitlines()
    assert len(out) == len(lines) and all(line.startswith(want) for line, want in zip(out, lines))


def test_sweep_with_a_subnormal_eps_exits_0_promptly():
    # eps feeds only the oracle column, which this sweep leaves out
    start = time.perf_counter()
    child = run_child("-m", "geompair.cli", "sweep", "--q-lo", "0.8353469542309737",
                      "--q-hi", "0.8353469542309737", "--step", "0.2", "--eps", "5e-324", timeout=30)
    assert time.perf_counter() - start < 2.0
    assert (child.returncode, child.stderr) == (0, "")
    header, row = child.stdout.splitlines()
    assert header == SWEEP_HEADER and row.startswith("0.835347,")


UNIT = st.floats(min_value=1e-300, max_value=1 - 2**-53)


def orders(lo):
    return st.integers(lo, 10**6) | st.integers(lo, 10**400)


CLOSED_FORM_MODELS = (st.just("limit")
                      | st.builds("{}{}".format, st.sampled_from(["ck", "golomb"]), orders(1))
                      | st.builds("cminus{}".format, orders(2)))


@st.composite
def analysis_argvs(draw):
    """``select`` with any float mean, or ``crossover`` of any two models
    on any ordered range with any positive tol."""
    if draw(st.booleans()):
        return ["select", f"--mean={draw(st.floats())!r}"]  # so that argparse takes "-1e+16"
    q_lo, q_hi = sorted(draw(st.lists(UNIT, min_size=2, max_size=2, unique=True)))
    tol = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return ["crossover", "--model-a", draw(CLOSED_FORM_MODELS), "--model-b", draw(CLOSED_FORM_MODELS),
            "--q-lo", repr(q_lo), "--q-hi", repr(q_hi), "--tol", repr(tol)]


@settings(max_examples=300, deadline=None)
@given(analysis_argvs())
def test_analysis_commands_exit_0_or_2(argv):
    assert main(argv) in (0, 2)


@pytest.mark.parametrize("position", ["--model-a", "--model-b"])
@pytest.mark.parametrize("kind", ["ck", "golomb"])
def test_crossover_refuses_an_order_beyond_the_float_range(capsys, kind, position):
    # the closed forms of both kinds take k + 1 as a float
    other = "--model-b" if position == "--model-a" else "--model-a"
    code, out, err = run(capsys, "crossover", position, kind + "7" * 400, other, "limit")
    assert (code, out, err) == (
        2, "", f"geompair: model {kind}<k> has a k of 400 digits, beyond the float range of its closed form\n")


def test_crossover_takes_every_order_within_the_float_range(capsys):
    largest = int(sys.float_info.max) - 1
    for kind in ("ck", "golomb"):
        code, out, err = run(capsys, "crossover", "--model-a", f"{kind}{largest}", "--q-lo", "0.01")
        assert (code, out, err) == (2, "", "geompair: no sign change on [0.01, 0.45]\n")
        code, out, err = run(capsys, "crossover", "--model-a", f"{kind}{largest + 1}")
        assert code == 2 and "beyond the float range" in err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["encode", "--family", "bogus"]) == 1


def _container(payload, count, family=1, k=3):
    return HEADER.pack(MAGIC, 1, family, k, count) + payload


def test_count_beyond_payload_bits_rejected(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("2 1 0 0")
    enc = tmp_path / "enc.bin"
    run(capsys, "encode", str(src), "--family", "ck", "--k", "3", "--out", str(enc))
    payload = enc.read_bytes()[HEADER.size:]
    count = 8 * len(payload) + 1
    enc.write_bytes(_container(payload, count))
    code, out, err = run(capsys, "decode", str(enc))
    assert code == 2
    assert out == ""
    assert str(count) in err and f"{len(payload)} payload bytes" in err


def test_huge_ck_parameter_rejected_promptly(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_container(bytes(2), 1, family=1, k=65535))
    start = time.perf_counter()
    code, out, err = run(capsys, "decode", str(bad))
    assert code == 2
    assert out == ""
    assert "truncated" in err
    assert time.perf_counter() - start < 5.0


HOSTILE_PAYLOADS = {
    # a run of ones that never ends: no cminus codeword is all ones
    "endless-run": (b"\xff" * 65536, "truncated"),
    # one codeword of a signature near 2^18, then 112 stray bits
    "deep-codeword": (b"\xff" * 65535 + b"\xfe" + bytes(16), "beyond final pair"),
}


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("kind", HOSTILE_PAYLOADS)
def test_hostile_cminus_container_rejected_in_bounded_time_and_memory(tmp_path, capsys, k, kind):
    payload, message = HOSTILE_PAYLOADS[kind]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_container(payload, 1, family=2, k=k))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, "decode", str(bad))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert message in err
    assert elapsed < 2.0
    assert peak < 20 * 2**20


@pytest.mark.parametrize("family, k", [(1, 1), (1, 3), (1, 256), (2, 2), (2, 4)])
@pytest.mark.parametrize("count", [1, 8 * 65536])
def test_hostile_all_ones_container_rejected_in_bounded_time_and_memory(tmp_path, capsys,
                                                                        family, k, count):
    # every pair of these codes ends in a zero, so all ones run off the end
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_container(b"\xff" * 65536, count, family=family, k=k))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, "decode", str(bad))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "truncated in pair 0 (0-based), which starts at payload bit 0" in err
    assert elapsed < 2.0
    assert peak < 20 * 2**20


def _decode_in_bounded_time_and_memory(capsys, path):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, "decode", str(path))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 4 * 2**20
    return code, out, err


# ck1, ck3, golomb3, cminus2 and limit
LONG_RUN_FAMILIES = [(1, 1), (1, 3), (4, 3), (2, 2), (3, 0)]


@pytest.mark.parametrize("family, k", LONG_RUN_FAMILIES)
def test_hostile_run_longer_than_a_window_rejected_in_bounded_time_and_memory(tmp_path, capsys,
                                                                            family, k):
    # 1 MiB of ones, 16 windows of the reader: the pair's run of ones is
    # read a window at a time, never held whole
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_container(b"\xff" * 2**20, 1, family=family, k=k))
    code, out, err = _decode_in_bounded_time_and_memory(capsys, bad)
    assert code == 2
    assert out == ""
    assert err == (
        "geompair: bitstream truncated in pair 0 (0-based), which starts at payload bit 0: "
        "the payload holds only 8388608 of its bits\n"
    )


def test_run_longer_than_a_window_decodes_in_bounded_time_and_memory(tmp_path, capsys):
    enc = tmp_path / "long.bin"
    enc.write_bytes(_container(b"\xff" * 2**20 + bytes(1), 1, family=1, k=1))
    code, out, err = _decode_in_bounded_time_and_memory(capsys, enc)
    assert (code, out, err) == (0, "8388608 0\n", "")


@pytest.mark.parametrize("family, k", [(1, 1), (1, 3), (1, 256), (2, 2), (2, 4)])
def test_hostile_all_ones_container_takes_the_table_path(tmp_path, capsys, family, k):
    # 524288 pairs claimed for 524288 bits: one bit per pair, at most
    # TABLE_BITS, so decode reads the stream through the decode table
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_container(b"\xff" * 65536, 8 * 65536, family=family, k=k))
    make_codec.cache_clear()
    code, out, err = run(capsys, "decode", str(bad))
    assert code == 2
    assert "truncated in pair 0 (0-based), which starts at payload bit 0" in err
    assert "_decode_table" in vars(make_codec(CodeFamily(FAMILY_FROM_BYTE[family], k)))


def test_truncation_error_names_pair_and_bit(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("2 1 0 0 5 3")  # ck k=1 codewords of 5, 2 and 10 bits
    enc = tmp_path / "enc.bin"
    run(capsys, "encode", str(src), "--family", "ck", "--k", "1", "--out", str(enc))
    enc.write_bytes(enc.read_bytes()[:-1])  # 16 of the 17 payload bits
    code, out, err = run(capsys, "decode", str(enc))
    assert code == 2
    assert out == ""
    assert "bitstream truncated in pair 2 (0-based), which starts at payload bit 7" in err


@pytest.mark.parametrize("argv, code, last_err", [
    (["params", "--k-max", "400"], 0, None),
    (["oracle", "--q", "0.9999"], 2, "geompair: truncation at S=32767 exceeds cap of 32768 runs"),
    (["encode", "--family", "bogus"], 1, "geompair encode: error: argument --family: invalid choice: "),
], ids=["ok", "data-error", "usage-error"])
def test_program_mode_ends_the_process_at_its_last_flush(argv, code, last_err):
    # main() with no argv runs as the program: once the streams are flushed
    # the process ends with the command's code, so neither an atexit
    # callback nor the statement after main() runs
    child = run_child("-c", (
        "import atexit, sys\n"
        "from geompair.cli import main\n"
        "atexit.register(print, 'atexit callback ran')\n"
        f"sys.argv = ['geompair', *{argv!r}]\n"
        "main()\n"
        "print('main returned')\n"
    ))
    assert child.returncode == code, child.stderr
    rows = child.stdout.splitlines()
    if code == 0:  # 400 lines, more than the stdout buffer holds
        assert child.stderr == ""
        assert rows[0].split() == ["k", "M", "j", "r", "sigma", "c", "profile"]
        assert [row.split()[0] for row in rows[1:]] == [str(k) for k in range(2, 401)]
    else:
        assert rows == [] and child.stderr.splitlines()[-1].startswith(last_err)


def test_library_calls_leave_the_collector_as_it_was(tmp_path, capsys):
    src, enc = tmp_path / "in.txt", tmp_path / "enc.bin"
    src.write_text("4 1 0 0 9 2\n")
    before = gc.get_freeze_count(), gc.isenabled()
    for argv in (["encode", str(src), "--family", "ck", "--k", "3", "--out", str(enc)],
                 ["decode", str(enc)], ["select", "--mean", "1.0"]):
        assert main(argv) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before, argv
    assert capsys.readouterr().out == "4 1\n0 0\n9 2\nck k=1\n"


@pytest.mark.parametrize("count", [3, 10_000])
def test_program_mode_flushes_the_standard_streams(tmp_path, capsysbinary, monkeypatch, count):
    # 10 000 pairs are more text than a pipe holds; 3 pairs, less than the
    # stdout buffer, are lost if the child leaves without its shutdown flush
    rng = random.Random(15)
    text = "".join(f"{rng.randrange(1000)} {rng.randrange(1000)}\n" for _ in range(count)).encode()
    assert len(text) > 65536 or len(text) < io.DEFAULT_BUFFER_SIZE
    argv = ["encode", "--family", "ck", "--k", "3"]  # stdin to stdout
    child = run_child("-m", "geompair.cli", *argv, input=text, text=False)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text), encoding="ascii"))
    code = main(argv)
    container, err = capsysbinary.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (code, container, err)
    assert code == 0 and err.startswith(f"encoded {count} pairs, ".encode())
    path = tmp_path / "enc.bin"
    path.write_bytes(container)
    child = run_child("-m", "geompair.cli", "decode", str(path), text=False)
    code = main(["decode", str(path)])
    out, err = capsysbinary.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err) == (0, text, b"")


@pytest.mark.parametrize("argv", [
    ["select", "--mean", "2.5"], ["oracle", "--q", "0.9"], ["params"],
    ["encode", "--family", "bogus"], ["crossover", "--q-lo", "0.5", "--q-hi", "0.4"]],
    ids=["select", "oracle", "params", "usage-error", "data-error"])
def test_program_mode_output_matches_main(capsysbinary, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    child = run_child("-m", "geompair.cli", *argv, text=False)
    code = main(argv)
    out, err = capsysbinary.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


def test_program_mode_runs_with_stdout_closed(tmp_path):
    # with file descriptor 1 closed, sys.stdout is None: print writes
    # nothing; then, as with a closed sys.stdout, the interpreter's own
    # exit ends the process
    child = run_child("-c", (
        "import os, sys\n"
        "os.close(1)\n"
        "os.execv(sys.executable, [sys.executable, '-m', 'geompair.cli', 'select', '--mean', '2.5'])\n"
    ))
    assert (child.returncode, child.stderr) == (0, "")
    src, enc = tmp_path / "in.txt", tmp_path / "enc.bin"
    src.write_text("4 1 0 0 9 2\n")
    child = run_child("-c", (
        "import sys\n"
        "from geompair.cli import main\n"
        "sys.stdout.close()\n"
        f"sys.argv = ['geompair', 'encode', {str(src)!r}, '--family', 'ck', '--out', {str(enc)!r}]\n"
        "main()\n"
    ))
    assert (child.returncode, child.stderr) == (0, "encoded 3 pairs, 22 payload bits\n")
    assert enc.read_bytes()[:4] == MAGIC


@pytest.fixture(params=["dev-full", "closed-pipe"])
def failing_stdout(request):
    """A stdout every write to fails, and the error text of the failure."""
    if request.param == "dev-full":
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as full:
            yield full, "[Errno 28] No space left on device"
        return
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end, "[Errno 32] Broken pipe"
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [["oracle", "--q", "0.9"], ["params"]])
def test_program_mode_leaves_a_failed_last_flush_to_the_interpreter(failing_stdout, argv):
    # output smaller than the stdout buffer fails only at the last flush,
    # which the interpreter's own exit reports, with exit status 120
    stdout, error = failing_stdout
    child = run_child("-m", "geompair.cli", *argv, stdout=stdout)
    assert child.returncode == 120
    assert child.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert child.stderr.endswith(f"Error: {error}\n") and child.stderr.count("\n") == 2


def test_program_mode_reports_a_failed_write_as_a_data_error(tmp_path, capsys, failing_stdout):
    # output larger than the stdout buffer fails in the command's own write
    stdout, error = failing_stdout
    rng = random.Random(20)
    src, enc = tmp_path / "in.txt", tmp_path / "enc.bin"
    src.write_text("".join(f"{rng.randrange(8)} {rng.randrange(8)}\n" for _ in range(40_000)))
    assert main(["encode", str(src), "--family", "ck", "--k", "3", "--out", str(enc)]) == 0
    capsys.readouterr()
    for argv in (["encode", str(src), "--family", "ck", "--k", "1"], ["decode", str(enc)]):
        child = run_child("-m", "geompair.cli", *argv, stdout=stdout)
        assert (child.returncode, child.stderr) == (2, f"geompair: {error}\n"), argv


def test_oracle_paths_leave_dataclasses_and_inspect_unloaded():
    child = run_child("-c", (
        "import sys\n"
        "from geompair.cli import main\n"
        "main(['oracle', '--q', '0.95'])\n"
        "main(['sweep', '--q-lo', '0.9', '--q-hi', '0.95', '--with-oracle', '--out', '-'])\n"
        "from geompair.oracle import oracle_optimal_avg_len\n"
        "print(oracle_optimal_avg_len(0.98, 1e-9))\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    ))
    assert child.returncode == 0, child.stderr
    oracle_line, *sweep_lines, value_line, loaded_line = child.stdout.splitlines()
    assert [line.split(",")[0] for line in sweep_lines[1:]] == ["0.900000", "0.950000"]
    assert all(line.split(",")[2] for line in sweep_lines[1:])  # the oracle column
    assert oracle_line == "11.484262 ± 3.20e-08"  # as printed by the per-symbol oracle
    est, unc = map(float, value_line.strip("()").split(", "))
    assert abs(est - 14.172894635551545) <= 1e-12 * est and unc == 3.2e-08
    assert loaded_line == "[]"


def test_package_runs_without_numpy():
    # numpy is a test dependency only: with its import blocked, every public
    # name resolves and the oracle and its commands give the same results,
    # and its trees pass the reference checks of their structure
    child = run_child("-c", (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import geompair\n"
        "print(all(getattr(geompair, name) for name in geompair.__all__))\n"
        "from geompair.oracle import build_truncated_source, huffman_lengths, truncated_huffman\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from reference_theory import lengths_by_signature, max_gap, two_level_check\n"
        "print(huffman_lengths([4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1]))\n"
        "weights = build_truncated_source(0.98, 1e-9).weights\n"
        "print(len(weights), weights[0], weights[-1])\n"
        "code = truncated_huffman(0.9, 1e-9)\n"
        "by_sig, half = lengths_by_signature(code), code.source.s_max // 2\n"
        "print(by_sig)\n"
        "print(two_level_check(by_sig, half), max_gap(by_sig, half))\n"
        "from geompair.cli import main\n"
        "print(main(['oracle', '--q', '0.95']), main(['sweep', '--with-oracle']))\n"
    ))
    assert child.returncode == 0, child.stderr
    names, lengths, weights, by_sig, checks, *cli_lines, codes = child.stdout.splitlines()
    assert names == "True"
    assert lengths == str([4] * 13 + [5] * 6)
    source = build_truncated_source(0.98, 1e-9)
    assert weights == f"702706 1.0 {source.weights[-1]}"
    code = truncated_huffman(0.9, 1e-9)
    assert by_sig == str(lengths_by_signature(code))
    assert checks == "(True, []) 0"
    # as printed with numpy installed
    assert cli_lines[0] == "11.484262 ± 3.20e-08"
    assert "\n".join(cli_lines[1:]) + "\n" == (DATA / "sweep_with_oracle.csv").read_text()
    assert codes == "0 0"


def test_codec_path_leaves_analysis_and_records_machinery_unloaded(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("4 1 0 0 9 2\n")
    enc, dec = str(tmp_path / "enc.bin"), str(tmp_path / "dec.txt")
    unloaded = ("dataclasses", "fractions", "geompair.analysis", "geompair.oracle")
    parser_modules = ("argparse", "gettext", "locale")
    child = run_child("-c", (
        "import sys\n"
        "import geompair.cli\n"
        f"print([m for m in {unloaded + parser_modules!r} if m in sys.modules])\n"
        f"geompair.cli.main(['encode', {str(src)!r}, '--family', 'ck', '--k', '3', '--out', {enc!r}])\n"
        f"geompair.cli.main(['decode', {enc!r}, '--out', {dec!r}])\n"
        f"print([m for m in {unloaded + parser_modules!r} if m in sys.modules])\n"
        "geompair.cli.main(['select', '--mean', '2.5'])\n"
        f"print([m for m in {parser_modules!r} if m in sys.modules])\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "    code = geompair.cli.main(['--help'])\n"
        "print(code, text.getvalue().startswith('usage: geompair [-h]'), 'argparse' in sys.modules)\n"
        "from geompair import adaptive_select, oracle_optimal_avg_len, profile_from\n"
        "print(adaptive_select(1.0).label(), oracle_optimal_avg_len(0.5, 1e-9)[0] > 3.99)\n"
        "print(profile_from(1, 4, 19).leaves == (1, 10, 8))\n"
    ))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "[]", "ck k=2", "[]", "0 True True", "ck k=1 True", "True"]
    assert (tmp_path / "dec.txt").read_text() == "4 1\n0 0\n9 2\n"


FLAGS = sorted({opt.flag for command in COMMANDS.values() for opt in command.options
                if opt.flag.startswith("-")})
VALUES = ["3", "-1", "0.5", "nan", "ck", "bogus", "-", "x.txt", "65536", "limit", ""]
TOKENS = ["--", "-h", "--help", "--out=x", "--fam", "--k-m"]
WORDS = [*COMMANDS, *FLAGS, *VALUES, *TOKENS]
TYPED_VALUES = {int: ["3", "0", "65536", " 7", "1_0"], float: ["0.5", "nan", "inf", "1e-3", "2"],
                str: ["ck", "cminus", "golomb", "limit", "x.txt", "-", ""]}
PARSER = build_parser()


@st.composite
def argvs(draw):
    """Command lines near the canonical spellings: a command, maybe a
    positional, its own options (often the required ones first) with
    values of their type or any other, and up to three other words of the
    grammar put anywhere."""
    name = draw(st.sampled_from([*COMMANDS]) | st.sampled_from(WORDS))
    argv = [name]
    options = [opt for opt in COMMANDS[name].options if opt.flag.startswith("-")] if name in COMMANDS else []
    if draw(st.booleans()) and (draw(st.booleans()) or name in ("encode", "decode")):
        argv.append(draw(st.sampled_from(TYPED_VALUES[str] + VALUES)))
    chosen = draw(st.lists(st.sampled_from(options), max_size=5)) if options else []
    if draw(st.booleans()):
        chosen = [opt for opt in options if opt.required] + chosen
    for opt in chosen:
        argv.append(opt.flag)
        if opt.type is not bool:
            typed = list(opt.choices or TYPED_VALUES[opt.type])
            argv.append(draw(st.sampled_from(3 * typed + VALUES)))
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(WORDS)))
    return argv


def _attributes(args):
    # nan parses to nan on both sides, and nan != nan
    return {key: repr(value) if isinstance(value, float) else value for key, value in vars(args).items()}


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_scan_agrees_with_argparse(argv):
    fast = _scan(list(argv))
    if fast is not None:
        assert _attributes(fast) == _attributes(PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["encode", "in.txt", "--family", "ck", "--k", "3", "--out", "x.bin"],
    ["encode", "--family", "limit"],
    ["decode", "x.bin", "--out", "-"],
    ["decode"],
    ["select", "--mean", "2.5"],
    ["sweep", "--with-oracle", "--out", "s.csv"],
    ["oracle", "--q", "0.9"],
    ["crossover", "--model-a", "cminus2", "--tol", "1e-3"],
    ["lengths", "--k", "3", "--s-max", "40"],
    ["params"],
])
def test_canonical_spellings_parse_without_argparse(argv):
    fast = _scan(argv)
    assert fast is not None
    assert _attributes(fast) == _attributes(PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["encode", "-h"], ["select", "--mean=2.5"], ["select", "--me", "2.5"],
    ["select", "--mean", "-1"], ["select"], ["encode", "--family", "bogus"],
    ["oracle", "--q", "x"], ["decode", "a", "b"], ["decode", "--", "a"], ["params", "--out"],
    ["encode", "--family", "ck", "in.txt"], ["encode", "--family", "limit", "--verbose"],
])
def test_other_spellings_go_to_argparse(argv):
    assert _scan(argv) is None


@pytest.mark.parametrize("argv, prog", [
    (["select", "--mean", "3", "extra"], "geompair select"),
    (["decode", "a", "b"], "geompair decode"),
    (["--bogus", "select", "--mean", "3"], "geompair"),
])
def test_unrecognized_arguments_get_their_parser_usage(capsys, monkeypatch, argv, prog):
    # those after a command get the command's usage; those before it, the program's
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} [-h]"), err
    extra = [token for token in argv if token in ("extra", "b", "--bogus")]
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: {' '.join(extra)}\n"), err


def test_lazy_package_names():
    assert geompair.adaptive_select is analysis.adaptive_select
    assert "oracle_optimal_avg_len" in dir(geompair)
    with pytest.raises(AttributeError):
        geompair.no_such_name  # noqa: B018
