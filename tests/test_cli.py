import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import geompair
from geompair import analysis
from geompair.cli import HEADER, MAGIC, main
from geompair.families import CodeFamily


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_encode_header_and_payload(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("2 1\n")
    out = tmp_path / "out.bin"
    code, _, err = run(capsys, "encode", str(src), "--family", "ck", "--k", "1",
                       "--out", str(out), "--verbose")
    assert code == 0
    blob = out.read_bytes()
    assert blob[:4] == MAGIC
    magic, version, family, k, count = HEADER.unpack_from(blob)
    assert (version, family, k, count) == (1, 1, 1, 1)
    assert blob[HEADER.size:] == bytes([0b11010000])
    assert "11010" in err


def test_encode_limit_example(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("0 0")
    out = tmp_path / "out.bin"
    code, _, _ = run(capsys, "encode", str(src), "--family", "limit", "--out", str(out))
    assert code == 0
    assert out.read_bytes()[HEADER.size:] == bytes([0x00])


@pytest.mark.parametrize(
    "family,k",
    [("ck", 1), ("ck", 3), ("cminus", 2), ("cminus", 4), ("limit", 0), ("golomb", 2)],
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


def test_non_ascii_input_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes("1 é".encode("utf-8"))
    code, _, err = run(capsys, "encode", str(src), "--family", "ck", "--k", "1")
    assert code == 2
    assert "not ASCII" in err


def test_non_decimal_digit_is_a_parse_error(tmp_path, capsys, monkeypatch):
    import io

    # '²' passes str.isdigit but int() rejects it
    monkeypatch.setattr("sys.stdin", io.StringIO("1 \u00b2"))
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


def test_invalid_family_param(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("1 2")
    code, _, err = run(capsys, "encode", str(src), "--family", "cminus", "--k", "1")
    assert code == 2
    assert "cminus" in err


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
    assert lines[0] == "q,entropy,opt_est,red_golomb_best,red_ck_best,red_cminus_best,red_limit"
    fields = lines[1].split(",")
    assert fields[0] == "0.500000"
    assert fields[1] == "2.000000"
    assert fields[4] == "0.000000"  # zero redundancy of the k=1 code at q = 1/2
    assert abs(float(fields[2])) < 1e-5


def test_sweep_oracle_column_empty_without_flag(capsys):
    code, out, _ = run(capsys, "sweep", "--q-lo", "0.3", "--q-hi", "0.3", "--step", "0.1")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == ""


def test_select(capsys):
    code, out, _ = run(capsys, "select", "--mean", "1.0")
    assert code == 0
    assert out.strip() == "ck k=1"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--q", "0.5", "--eps", "1e-9")
    assert code == 0
    assert out.startswith("4.000000 ±")
    code, _, _ = run(capsys, "oracle", "--q", "0.99")
    assert code == 2


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


def _run_child(*args):
    src = str(Path(geompair.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_numpy_unloaded():
    child = _run_child("-c", "import sys, geompair.cli; print('numpy' in sys.modules)")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
    child = _run_child("-m", "geompair.cli", "oracle", "--q", "0.5")
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("4.000000 ±")


def test_oracle_paths_leave_numpy_unloaded():
    child = _run_child("-c", (
        "import sys\n"
        "from geompair.cli import main\n"
        "main(['oracle', '--q', '0.95'])\n"
        "main(['sweep', '--q-lo', '0.9', '--q-hi', '0.95', '--with-oracle', '--out', '-'])\n"
        "from geompair.oracle import oracle_optimal_avg_len\n"
        "print(oracle_optimal_avg_len(0.98, 1e-9))\n"
        "print('numpy' in sys.modules)\n"
    ))
    assert child.returncode == 0, child.stderr
    oracle_line, *sweep_lines, value_line, numpy_line = child.stdout.splitlines()
    assert [line.split(",")[0] for line in sweep_lines[1:]] == ["0.900000", "0.950000"]
    assert all(line.split(",")[2] for line in sweep_lines[1:])  # the oracle column
    assert oracle_line == "11.484262 ± 3.20e-08"  # as printed by the per-symbol oracle
    est, unc = map(float, value_line.strip("()").split(", "))
    assert abs(est - 14.172894635551545) <= 1e-12 * est and unc == 3.2e-08
    assert numpy_line == "False"
