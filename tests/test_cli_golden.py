"""Golden outputs of the CLI commands.

The files under ``tests/data/cli/`` were written by the CLI before the
batch coders replaced the per-pair loops; every command must keep
printing them byte for byte.  ``pairs200.txt`` is a fixed input of 200
pairs near the design points of several families, with a few extreme
ones; its container for each family is ``<family>.bin``.
``oracle_q099.txt``, the oracle above q = 0.95, was written later, by
the run-length oracle; CPython 3.10 to 3.13 print it alike.

``truncated.txt`` holds the stderr of ``decode`` for each container cut
to half its payload, and for a cminus k = 2 container whose one pair is
64 KiB of ones, each after the container's name.  It was written when
the family loops became each codec's only decoder; every pair index and
start bit in it is the one the earlier per-pair decoders reported.

``help*.txt`` hold the stdout of ``--help`` for the program and for each
command, and ``usage_*.txt`` the stderr of the usage errors listed with
their argv and exit code in ``usage.json``, all printed by the
hand-written argparse parser the command table replaced, at 80 columns
(argparse wraps to the terminal width) under CPython 3.11.
"""

import json
from pathlib import Path

import pytest

from geompair.cli import COMMANDS, HEADER, MAGIC, main

DATA = Path(__file__).parent / "data" / "cli"

CONTAINERS = {
    "ck3": ["--family", "ck", "--k", "3"],
    "ck16": ["--family", "ck", "--k", "16"],
    "cminus2": ["--family", "cminus", "--k", "2"],
    "limit": ["--family", "limit"],
    "golomb3": ["--family", "golomb", "--k", "3"],
}

# the last three have q-hat 2^-7, 2^-12 and about 2^-66.4: select names cminus 7, 12 and 66
SELECT_MEANS = ["0.01", "0.3", "1.0", "4.0", "25.0", "100.0", "1000.0", "100000.0",
                "0.007874015748031496", "0.0002442002442002442", "1e-20"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return out, err


@pytest.mark.parametrize("name", CONTAINERS)
def test_encode_container_is_golden(tmp_path, capsys, name):
    out_path = tmp_path / f"{name}.bin"
    _, err = run(capsys, "encode", str(DATA / "pairs200.txt"), *CONTAINERS[name], "--out", str(out_path))
    golden = (DATA / f"{name}.bin").read_bytes()
    assert out_path.read_bytes() == golden
    assert err.startswith("encoded 200 pairs, ")


@pytest.mark.parametrize("name", CONTAINERS)
def test_decode_text_is_golden(capsys, name):
    out, err = run(capsys, "decode", str(DATA / f"{name}.bin"))
    assert out == (DATA / "pairs200.txt").read_text()
    assert err == ""


def truncated_container(name):
    if name == "all-ones":
        return HEADER.pack(MAGIC, 1, 2, 2, 1) + b"\xff" * 65536
    blob = (DATA / f"{name}.bin").read_bytes()
    return blob[: HEADER.size + (len(blob) - HEADER.size) // 2]


def test_truncation_error_is_golden(tmp_path, capsys):
    errors = []
    for name in [*CONTAINERS, "all-ones"]:
        path = tmp_path / f"{name}.bin"
        path.write_bytes(truncated_container(name))
        assert main(["decode", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(f"{name} {err}")
    assert "".join(errors) == (DATA / "truncated.txt").read_text()


def test_params_is_golden(capsys):
    assert run(capsys, "params")[0] == (DATA / "params.txt").read_text()


def test_lengths_is_golden(capsys):
    out, _ = run(capsys, "lengths", "--k", "3", "--s-max", "40")
    assert out == (DATA / "lengths_k3_s40.txt").read_text()


def test_select_is_golden(capsys):
    out = "".join(f"{mean} {run(capsys, 'select', '--mean', mean)[0]}" for mean in SELECT_MEANS)
    assert out == (DATA / "select.txt").read_text()


def test_crossover_is_golden(capsys):
    assert run(capsys, "crossover")[0] == (DATA / "crossover.txt").read_text()


def test_oracle_is_golden(capsys):
    assert run(capsys, "oracle", "--q", "0.5")[0] == (DATA / "oracle_q05.txt").read_text()
    assert run(capsys, "oracle", "--q", "0.99")[0] == (DATA / "oracle_q099.txt").read_text()


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_is_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    out, err = run(capsys, *argv)
    assert out == (DATA / ("help.txt" if command is None else f"help_{command}.txt")).read_text()
    assert err == ""


USAGE = json.loads((DATA / "usage.json").read_text())


@pytest.mark.parametrize("name", USAGE)
def test_usage_error_is_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(USAGE[name]["argv"])
    out, err = capsys.readouterr()
    assert (code, out) == (USAGE[name]["exit"], "")
    assert err == (DATA / f"{name}.txt").read_text()
