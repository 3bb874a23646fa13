"""Command-line interface: JSON in/out, determinism, exit codes."""

import contextlib
import copy
import errno
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padharm import cli, orbital, spaces
from padharm.cli import main
from padharm.config import RunConfig
from padharm.dagger import make_dagger_scalar
from padharm.errors import ScaleExceeded, SchemaError
from padharm.suites import SUITES, run_suite, suite_flags
from reach import readme_commands


def run_cli(argv, payload=None, tmp_path=None):
    """Invoke main() with a payload file; capture stdout/stderr/exit code."""
    args = list(argv)
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        args = ["--payload", str(path)] + args
    out_path = tmp_path / "out.json"
    args = ["--out", str(out_path)] + args
    code = main(args)
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def test_invariants_round_trip(tmp_path):
    code, text = run_cli(["invariants"],
                         {"matrix": [[0, 1], [2, 0]]}, tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["command"] == "invariants"
    assert doc["result"]["a"] == ["0"]
    assert doc["result"]["b"] == ["0", "2"]


def test_section_then_invariants(tmp_path):
    code, text = run_cli(
        ["section"], {"kind": "sigma", "a": ["1/2"], "b": [2, 3]}, tmp_path)
    assert code == 0
    matrix = json.loads(text)["result"]["matrix"]
    code, text = run_cli(["invariants"], {"matrix": matrix}, tmp_path)
    assert json.loads(text)["result"] == {"a": ["1/2"], "b": ["2", "3"]}


def test_oi_rs_frozen_example(tmp_path):
    payload = {
        "X": [0, 1, 1, 0],
        "f": {"space": {"kind": "matrix-f", "k": 2},
              "terms": [{"coeff": 1}]},
    }
    code, text = run_cli(["oi-rs"], payload, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["measure"] == "unnormalized"
    assert result["value_at_s0"]["terms"] == [["0", "2/3"]]


def test_oi_rs_normalized_measure(tmp_path):
    payload = {
        "X": [0, 1, 1, 0],
        "f": {"space": {"kind": "matrix-f", "k": 2},
              "terms": [{"coeff": 1}]},
    }
    code, text = run_cli(["--measure", "norm", "oi-rs"], payload, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["measure"] == "normalized"
    assert result["value_at_s0"]["terms"] == [["0", "1"]]


def test_oi_nilpotent_default(tmp_path):
    code, text = run_cli(["oi-nilpotent"], {"n": 1}, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    # (1 - 1/q)/(1 + T) at s = 0 is (1 - 1/q)/2 = 1/3 for q = 3
    assert result["value_at_s0"]["terms"] == [["0", "1/3"]]
    assert result["pole_report"][0]["orders"]["s=1/2+"] == 0


def test_oi_nilpotent_bounds_n_before_building_the_space(
        tmp_path, capsys, monkeypatch):
    # the default packet lives on (n+1)^2 coordinates
    built = []
    monkeypatch.setattr(cli, "matrix_space_f", lambda F, psi, k: built.append(k))
    code, _ = run_cli(["oi-nilpotent"], {"n": 10**9}, tmp_path)
    assert code == 2
    assert '"/n: exceeds budgets/max_n = 3' in capsys.readouterr().err
    assert built == []


def test_match_default_forms(tmp_path):
    payload = {"matrix": [[[0, 1], [0, 1]], [[0, 1], [0, 2]]]}
    code, text = run_cli(["match"], payload, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["side"] in (0, 1)
    assert result["disc_classes"] == ["1", "3"]


# every extension the default budgets admit: p in {3, 5} and delta = unit
# * p^val, with a non-square unit when val = 0 (inert) and any unit when
# val = 1 (ramified)
EXTENSIONS = [(p, val, unit) for p in (3, 5) for val in (0, 1)
              for unit in range(1, p)
              if val or pow(unit, (p - 1) // 2, p) == p - 1]


@pytest.mark.parametrize("p, val, unit", EXTENSIONS)
def test_match_default_forms_separate_the_norm_classes(p, val, unit, tmp_path):
    # (1, 1) and (1, p) do not separate them when eta(p) = 1, as at
    # p = 3, delta = 6 and p = 5, delta = 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p, "delta": {"val": val, "unit": unit}}))
    payload = {"matrix": [[[0, 1], [0, 1]], [[0, 1], [0, 2]]]}
    code, text = run_cli(["--config", str(cfg), "match"], payload, tmp_path)
    assert code == 0
    assert json.loads(text)["result"]["side"] in (0, 1)


@pytest.mark.parametrize("matrix", [[[[0, 1], [0, 1]], [[0, 1], [0, 2]]],
                                    [[[0, 1], [0, 3]], [[0, 1], [0, 2]]]])
@pytest.mark.parametrize("eta, code", [({"r_pi": "1/2", "k": 0}, 0),
                                       ({"r_pi": "1/3", "k": 0}, 2)])
def test_match_takes_only_the_character_of_the_extension(
        matrix, eta, code, tmp_path, capsys):
    # delta = 2 is inert at p = 3, so eta is the unramified sign character;
    # e(1/3) on the uniformizer once put the two matrices on sides 0 and 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta": eta}))
    got, text = run_cli(["--config", str(cfg), "match"], {"matrix": matrix},
                        tmp_path)
    assert got == code
    if code:
        assert "eta is not the quadratic character of E/F" in \
            capsys.readouterr().err
    else:
        assert json.loads(text)["result"]["side"] in (0, 1)


def test_theorem_germ_gl_refuses_a_low_level_before_the_shell_sum(
        tmp_path, capsys, monkeypatch):
    # r = 3 is below 2m = 24; the spectral side once ran for seconds first
    def spherical_rhs(*args, **kwargs):
        raise AssertionError("spherical_rhs was called")

    monkeypatch.setattr(orbital, "spherical_rhs", spherical_rhs)
    code, _ = run_cli(["theorem-germ-gl"], {"m": 12, "r": 3}, tmp_path)
    assert code == 2
    assert "need r >= 2m for translation invariance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["germ-check", "theorem-germ-gl"])
def test_germ_commands_default_to_level_2m_plus_1(command, tmp_path):
    # r = 3 for every m once made theorem-germ-gl {"m": 2} exit 2
    code, text = run_cli([command], {"m": 2}, tmp_path)
    assert code == 0
    assert text == run_cli([command], {"m": 2, "r": 5}, tmp_path)[1]


def test_local_factors_table(tmp_path):
    code, text = run_cli(["local-factors"], {"q": 3, "n_max": 2}, tmp_path)
    assert code == 0
    table = json.loads(text)["result"]["table"]
    assert table and all(row["rational_function"]["var"] == "q^-1"
                         for row in table)


def test_dagger_gen(tmp_path):
    code, text = run_cli(["dagger-gen"], {"kind": "scalar", "m": 1}, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["admissible"] is True
    assert result["packet"]["terms"]


@pytest.mark.parametrize("max_n, k, code", [
    (3, 4, 0), (3, 5, 2), (3, 16, 2), (1, 2, 0), (1, 3, 2)])
def test_dagger_gen_bounds_k_by_max_n(max_n, k, code, tmp_path, capsys):
    # k is bounded like every rank input, before any packet is built
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_n": max_n}}))
    start = time.perf_counter()
    got, _ = run_cli(["--config", str(cfg), "dagger-gen"],
                     {"kind": "matrix", "m": 1, "k": k}, tmp_path)
    assert got == code
    assert time.perf_counter() - start < 5
    if code == 2:
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"].startswith("/k: exceeds budgets/max_n")


# with the default config (p = 3, conductor 0, inert delta) the shell
# frequency of level m is 1/3^(2m): 3^8832 has 13999 bits, 3^8834 has
# 14002, and cli.MAX_PRINTED_BITS is 14000
@pytest.mark.parametrize("kind", ["scalar", "column", "matrix"])
@pytest.mark.parametrize("m, code", [(4300, 0), (4500, 3)])
def test_dagger_gen_level_bound_keeps_each_outcome(kind, m, code, tmp_path,
                                                   capsys):
    got, text = run_cli(["dagger-gen"], {"kind": kind, "m": m}, tmp_path)
    assert got == code
    if code == 0:
        assert json.loads(text)["result"]["admissible"] is True
    else:
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ScaleExceeded"
        assert error["message"].startswith("/m:")


@pytest.mark.parametrize("m, code", [(4416, 0), (4417, 3)])
def test_dagger_gen_level_bound_is_the_print_bound(m, code, tmp_path):
    bits = (3 ** (2 * m)).bit_length()
    assert (bits > cli.MAX_PRINTED_BITS) == (code == 3)
    assert run_cli(["dagger-gen"], {"m": m}, tmp_path)[0] == code


@pytest.mark.parametrize("kind", ["scalar", "column", "matrix"])
def test_dagger_gen_refuses_a_huge_level_at_once(kind, tmp_path):
    start = time.perf_counter()
    assert run_cli(["dagger-gen"], {"kind": kind, "m": 100000},
                   tmp_path)[0] == 3
    assert time.perf_counter() - start < 1


# a 1x1 matrix has no shell frequency; its level is bounded by p^m,
# and 3^8833 has 14000 bits, 3^8834 has 14002
@pytest.mark.parametrize("m, code", [(8833, 0), (8834, 3), (100000, 3)])
def test_dagger_gen_one_by_one_matrix_level_bound(m, code, tmp_path, capsys):
    assert ((3 ** m).bit_length() > cli.MAX_PRINTED_BITS) == (code == 3)
    start = time.perf_counter()
    got, text = run_cli(["dagger-gen"], {"kind": "matrix", "k": 1, "m": m},
                        tmp_path)
    assert got == code
    if code == 0:
        assert json.loads(text)["result"]["admissible"] is True
    else:
        assert time.perf_counter() - start < 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"].startswith("/m: p^m has more than")


def test_dagger_gen_one_by_one_matrix_has_no_shell_frequency(tmp_path):
    # its one entry is a congruence indicator, so a level past the print
    # bound of the shell frequency still has an answer
    code, text = run_cli(["dagger-gen"], {"kind": "matrix", "m": 4500, "k": 1},
                         tmp_path)
    assert code == 0
    assert json.loads(text)["result"]["admissible"] is True


def test_fourier_command_determinism(tmp_path):
    payload = {"packet": {"space": {"kind": "f", "dim": 1},
                          "terms": [{"coeff": 1, "exps": [1],
                                     "center": ["1/3"]}]}}
    runs = set()
    for _ in range(2):
        code, text = run_cli(["fourier"], payload, tmp_path)
        assert code == 0
        runs.add(text)
    assert len(runs) == 1


def _fourier_coeff(coeff_terms, tmp_path):
    payload = {"packet": {"space": {"kind": "f", "dim": 1},
                          "terms": [{"coeff": {"terms": coeff_terms}}]}}
    return run_cli(["fourier"], payload, tmp_path)


@pytest.mark.parametrize("coeff_terms", [[["0", "1"], ["0", "1"]],
                                         [["0", "1"], ["1", "1"]]])
def test_fourier_repeated_exponents_add_up(coeff_terms, tmp_path):
    code, text = _fourier_coeff(coeff_terms, tmp_path)
    assert code == 0
    (term,) = json.loads(text)["result"]["packet"]["terms"]
    assert term["coeff"]["terms"] == [["0", "2"]]


def test_fourier_takes_a_coefficient_key_of_a_huge_conductor(tmp_path):
    # deciding the sum's zero is as quick at conductor 10^20 + 39 as at 3
    key = "1/100000000000000000039"
    code, text = _fourier_coeff([[key, "1"], ["0", "1"]], tmp_path)
    assert code == 0
    (term,) = json.loads(text)["result"]["packet"]["terms"]
    assert term["coeff"]["terms"] == [["0", "1"], [key, "1"]]


@pytest.mark.parametrize("coeff_terms, pointer", [
    ([["0"]], "/packet/terms/0/coeff/terms/0"),
    ([["0", "1"], "1"], "/packet/terms/0/coeff/terms/1"),
    (5, "/packet/terms/0/coeff/terms"),
])
def test_fourier_malformed_coeff_terms(coeff_terms, pointer, tmp_path, capsys):
    code, _ = _fourier_coeff(coeff_terms, tmp_path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(pointer + ":")


def test_unknown_option_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "local-factors"])
    assert exc.value.code == 2


def test_schema_error_exit_code(tmp_path, capsys):
    code, _ = run_cli(["invariants"], {"matrix": [[1, 2]]}, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "SchemaError"
    assert "/matrix" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_an_out_path_that_cannot_be_written_is_a_schema_error(
        where, tmp_path, capsys):
    payload = tmp_path / "payload.json"
    payload.write_text("{}")
    out = tmp_path / "no" / "such" / "x.json" if where == "missing-dir" \
        else tmp_path
    code = main(["--payload", str(payload), "--out", str(out),
                 "local-factors"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(f"/out: cannot write {out}: ")


def _local_factors(tmp_path, capsys):
    """argv of a small local-factors request, and the bytes it prints."""
    payload = tmp_path / "payload.json"
    payload.write_text(json.dumps({"q": 3, "n_max": 2}))
    argv = ["--payload", str(payload), "local-factors"]
    assert main(argv) == 0
    return argv, capsys.readouterr().out.encode()


def test_out_holds_the_bytes_stdout_prints(tmp_path, capsys, monkeypatch):
    # --out is rewritten in place: a longer prior file is trimmed to the
    # answer and a shorter one is overwritten, and neither leaves a byte
    # that stdout would not print
    commands = readme_commands()
    printed = []
    for argv, stdin in commands:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 0, argv
        printed.append(capsys.readouterr().out.encode())
    cases = [(argv, stdin, b"junk\n" * (len(text) // 4), text)
             for (argv, stdin), text in zip(commands, printed)]
    cases += [(argv, stdin, b"{", text) for argv, stdin, _, text in cases[::6]]
    out = tmp_path / "out.json"
    for argv, stdin, prior, text in cases:
        out.write_bytes(prior)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(["--out", str(out)] + argv) == 0, argv
        assert out.read_bytes() == text, argv
    assert capsys.readouterr().out == ""


def test_an_existing_out_file_is_not_emptied_first(tmp_path, capsys,
                                                   monkeypatch):
    argv, printed = _local_factors(tmp_path, capsys)
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * 20000)
    flags, real_open = [], os.open

    def recording_open(path, flag, *args, **kwargs):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    assert main(["--out", str(out)] + argv) == 0
    assert flags and not any(flag & os.O_TRUNC for flag in flags)
    assert out.read_bytes() == printed


@pytest.mark.parametrize("target", ["devnull", "fifo"])
def test_out_to_a_device_or_a_fifo_exits_0(target, tmp_path, capsys):
    # neither can be trimmed: a truncate there would fail, and exit 2
    argv, printed = _local_factors(tmp_path, capsys)
    if target == "devnull":
        assert main(["--out", os.devnull] + argv) == 0
        return
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # the read end is open first, and the answer fits the pipe's buffer,
    # so the write neither blocks nor needs a second thread
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["--out", str(fifo)] + argv) == 0
        assert os.read(reader, 1 << 16) == printed
    finally:
        os.close(reader)


class _UnwritableStream(io.StringIO):
    """A standard stream whose descriptor was closed and then reused by a
    file open for reading, as fd 2 is when a shell script started the
    interpreter with 2>&-: every write fails with EBADF."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def test_a_closed_stdin_reads_as_no_payload(tmp_path, capsys, monkeypatch):
    payload = tmp_path / "payload.json"
    payload.write_text("{}")
    assert main(["--payload", str(payload), "local-factors"]) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["local-factors"]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("stdout", [None, _UnwritableStream()],
                         ids=["none", "unwritable"])
def test_a_closed_stdout_is_an_out_schema_error(stdout, tmp_path, capsys,
                                                monkeypatch):
    payload = tmp_path / "payload.json"
    payload.write_text("{}")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["--payload", str(payload), "local-factors"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"] == (
        f"/out: cannot write stdout: [Errno {errno.EBADF}] "
        f"{os.strerror(errno.EBADF)}")


@pytest.mark.parametrize("stderr", [None, _UnwritableStream()],
                         ids=["none", "unwritable"])
def test_a_closed_stderr_keeps_the_exit_code(stderr, tmp_path, capsys,
                                             monkeypatch):
    payload = tmp_path / "payload.json"
    payload.write_text("{}")
    refused = ["--payload", str(payload), "invariants"]
    out = tmp_path / "out.json"
    monkeypatch.setattr(sys, "stderr", stderr)
    # the error document still reaches --out; only its echo is lost
    assert main(["--out", str(out)] + refused) == 2
    error = json.loads(out.read_text())["error"]
    assert error["message"].startswith("/matrix: ")
    assert main(refused) == 2
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["--payload", str(payload), "local-factors"]) == 2
    assert capsys.readouterr() == ("", "")


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2}))
    code, _ = run_cli(["--config", str(cfg), "invariants"],
                      {"matrix": [[0, 1], [1, 0]]}, tmp_path)
    assert code == 2
    assert "/p" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [
    ("oi-nilpotent", {"n": 1}),
    ("transfer-factor", {}),
    ("local-factors", {}),
    ("invariants", {"matrix": [[0, 1], [2, 0]]}),
], ids=["field-first", "extension-first", "neither-local-factors",
        "neither-invariants"])
@pytest.mark.parametrize("config, pointer", [
    ({"p": 4, "budgets": {"max_p": 5}}, "/p"),
    ({"delta": 4}, "/delta"),
    ({"delta": {"val": 1, "unit": 3}}, "/delta"),
], ids=["p-not-prime", "delta-square", "delta-valuation-2"])
def test_a_field_or_extension_refusal_names_its_pointer(
        config, pointer, command, payload, tmp_path, capsys):
    # the configuration builds the field and then the extension before the
    # command runs, so a refusal of either is a schema error at its own
    # field, whichever of the two the command uses, if any
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _ = run_cli(["--config", str(cfg), command], payload, tmp_path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(f"{pointer}: ")


def test_germ_check_obeys_the_coset_budget(tmp_path, capsys):
    # m = 1 reaches one shell of p = 3 unit cosets
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_cosets": 2}}))
    code, _ = run_cli(["--config", str(cfg), "germ-check"],
                      {"m": 1, "r": 3}, tmp_path)
    assert code == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == {"type": "ScaleExceeded",
                            "message": "rank-1 unit-coset budget exceeds"
                            " budgets/max_cosets = 2"}
    # the default budget answers the same request
    code, text = run_cli(["germ-check"], {"m": 1, "r": 3}, tmp_path)
    assert code == 0 and json.loads(text)["result"]["all_equal"]


def test_theorem_germ_gl_obeys_the_coset_budget(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_cosets": 10}}))
    code, _ = run_cli(["--config", str(cfg), "theorem-germ-gl"],
                      {"m": 3, "r": 7}, tmp_path)
    assert code == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ScaleExceeded"
    # the default budget answers the same request
    code, text = run_cli(["theorem-germ-gl"], {"m": 3, "r": 7}, tmp_path)
    assert code == 0 and json.loads(text)["result"]["equal"]


def test_theorem_germ_gl_refuses_a_large_level_before_the_shell_sum(
        tmp_path, capsys):
    # the shell sum at m = 13 runs at level 13: 3^13 unit cosets exceed
    # the default budget of 500000, which once took 15 s to answer
    start = time.perf_counter()
    code, _ = run_cli(["theorem-germ-gl"], {"m": 13, "r": 27}, tmp_path)
    assert code == 3
    assert time.perf_counter() - start < 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ScaleExceeded"


# mu, which nothing charges, once ran before the charged shell sums and
# ended in a traceback: its result sorts on a repr with over 4300 digits
@pytest.mark.parametrize("argv, payload", [
    (["theorem-germ-gl"], {"m": 10000, "r": 20000}),
    (["germ-check"], {"m": 10000, "r": 20001}),
    (["verify-suite", "theorem-germ-gl", "--m", "100000", "--r", "200001"],
     None),
])
def test_large_germ_levels_are_charged_before_mu(argv, payload, tmp_path,
                                                 capsys):
    code, _ = run_cli(argv, payload, tmp_path)
    assert code == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == {"type": "ScaleExceeded",
                            "message": "rank-1 unit-coset budget exceeds"
                            " budgets/max_cosets = 500000"}


def test_a_long_rank_1_shell_range_is_refused_in_bounded_memory(tmp_path,
                                                                capsys):
    # exps -10^7 at x12 gives 10^7 + 1 shells; the first charge counts p
    # cosets per shell as one product instead of one term per shell
    def payload(exp):
        return {"X": [0, 1, 1, 0],
                "f": {"space": {"kind": "matrix-f", "k": 2},
                      "terms": [{"coeff": 1, "exps": [0, exp, 0, 0]}]}}

    tracemalloc.start()
    try:
        code, _ = run_cli(["oi-rs"], payload(-10 ** 7), tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 5 * 2 ** 20
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["message"].startswith("rank-1 unit-coset budget")
    # nor does the refusal take time that grows with the limit
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_cosets": 10 ** 8}}))
    start = time.perf_counter()
    code, _ = run_cli(["--config", str(cfg), "oi-rs"], payload(-10 ** 9),
                      tmp_path)
    assert code == 3
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("command", ["germ-check", "theorem-germ-gl"])
def test_germ_commands_refuse_a_low_level_before_the_dagger_scalar(
        command, p, tmp_path, capsys):
    # m = 10^6: the dagger scalar holds p^(2m), which took 18-39 s to build
    # before the rule r >= max(2m, m + 1) was checked
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p}))
    start = time.perf_counter()
    code, _ = run_cli(["--config", str(cfg), command],
                      {"m": 10 ** 6, "r": 3}, tmp_path)
    assert time.perf_counter() - start < 1
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == "need r >= 2m for translation invariance"


def test_germ_check_refuses_a_low_level_before_any_shell_work(
        tmp_path, capsys, monkeypatch):
    real = spaces.charge

    def charge(p, lams, what):
        # the packets are built and charged; no shell may be
        if "unit-coset" in what:
            raise AssertionError("a shell sum was charged")
        real(p, lams, what)

    monkeypatch.setattr(orbital, "charge", charge)
    monkeypatch.setattr(spaces, "charge", charge)
    code, _ = run_cli(["germ-check"], {"m": 12, "r": 3}, tmp_path)
    assert code == 2
    assert "need r >= 2m for translation invariance" in capsys.readouterr().err


# the suites that enumerate unit cosets or cells, with the message of
# the first enumeration each one charges
@pytest.mark.parametrize("suite, message", [
    ("germ", "rank-1 unit-coset budget"),
    ("theorem-germ-gl", "rank-1 unit-coset budget"),
    ("local-constancy", "rank-2 cell budget"),
    ("dagger", "compactness unit-coset budget"),
])
def test_suites_obey_the_coset_budget(suite, message):
    with pytest.raises(ScaleExceeded, match=message):
        run_suite(suite, RunConfig({"budgets": {"max_cosets": 1}}))


@pytest.mark.parametrize("suite, flag", [("fourier", "--samples"),
                                         ("local-constancy", "--pairs")])
def test_verify_suite_charges_a_given_sample_count(suite, flag, tmp_path,
                                                   capsys):
    # one coset per sample exceeds the default limit of 500000 at once
    start = time.perf_counter()
    code, _ = run_cli(["verify-suite", suite, flag, "100000000"],
                      tmp_path=tmp_path)
    assert code == 3
    assert time.perf_counter() - start < 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == {"type": "ScaleExceeded",
                            "message": f"{suite} {flag} budget exceeds"
                            " budgets/max_cosets = 500000"}


def test_verify_suite_obeys_the_coset_budget(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_cosets": 1}}))
    code, _ = run_cli(["--config", str(cfg), "verify-suite", "dagger"],
                      tmp_path=tmp_path)
    assert code == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ScaleExceeded"


def test_the_coset_budget_ends_with_its_request(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_cosets": 1}}))
    code, _ = run_cli(["--config", str(cfg), "theorem-germ-gl"],
                      {"m": 3, "r": 7}, tmp_path)
    assert code == 3
    # the next call in the same process runs at the default budget
    config = RunConfig()
    ext, psi = config.ext(), config.psi()
    phi = make_dagger_scalar(ext, psi, 3)
    assert orbital.theorem_germ_gl(ext, psi, config.eta(), phi, 7)["equal"]


def test_rank_budget_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_n": 1}}))
    big = [[0] * 4 for _ in range(4)]
    code, _ = run_cli(["--config", str(cfg), "invariants"],
                      {"matrix": big}, tmp_path)
    assert code == 2


RANK_ZERO = [
    ("classify", {"matrix": [[0]]}, "/matrix"),
    ("transfer-factor", {"matrix": [[[0, 0]]]}, "/matrix"),
    ("match", {"matrix": [[[0, 1]]]}, "/matrix"),
    ("section", {"kind": "sigma-prime", "a": [], "b": [1]}, "/a"),
    ("section", {"kind": "varrho", "a": [], "b": [1]}, "/a"),
]


@pytest.mark.parametrize("command, payload, pointer", RANK_ZERO,
                         ids=[f"{c}-{p.get('kind', 'matrix')}"
                              for c, p, _ in RANK_ZERO])
def test_rank_zero_is_refused_at_its_pointer(command, payload, pointer,
                                             tmp_path, capsys):
    # a 1 x 1 matrix, or a section with no a, has rank n = 0: Delta_+ and
    # the (n+1) x (n+1) sections need n >= 1
    code, _ = run_cli([command], payload, tmp_path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(pointer + ":")


GAMMA_2X2 = [[[1, 0], [3, 1]], [[1, 1], [2, 0]]]
MISMATCHED_GAMMAS = [
    ("1x1-under-2x2", GAMMA_2X2, [[[2, 0]]]),
    ("equal-sizes", [[[2, 1]]], [[[3, 0]]]),
    ("equal-sizes-2x2", GAMMA_2X2, GAMMA_2X2),
]


@pytest.mark.parametrize("gamma1, gamma2",
                         [case[1:] for case in MISMATCHED_GAMMAS],
                         ids=[case[0] for case in MISMATCHED_GAMMAS])
def test_transfer_factor_group_refuses_mismatched_shapes(gamma1, gamma2,
                                                          tmp_path, capsys):
    # the group transfer factor is defined on H_n(E) x H_(n+1)(E)
    code, _ = run_cli(["transfer-factor"], {"setting": "group",
                                            "gamma1": gamma1,
                                            "gamma2": gamma2}, tmp_path)
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith("/gamma2:")


def test_transfer_factor_group_answers_at_n_and_n_plus_one(tmp_path):
    code, text = run_cli(["transfer-factor"], {"setting": "group",
                                               "gamma1": [[[2, 1]]],
                                               "gamma2": GAMMA_2X2}, tmp_path)
    assert code == 0
    assert json.loads(text)["result"]["side"] == "group"


def test_rank_zero_answers_where_it_means_something(tmp_path):
    for command, payload in (("invariants", {"matrix": [[3]]}),
                             ("section", {"kind": "sigma", "a": [],
                                          "b": [3]})):
        code, _ = run_cli([command], payload, tmp_path)
        assert code == 0


def test_verify_suite_small(tmp_path):
    code, text = run_cli(
        ["verify-suite", "section-identities", "--n", "2", "--samples", "5"],
        None, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["passed"] is True
    assert result["failures"] == []


def test_germ_check_command(tmp_path):
    payload = {"m": 1, "r": 3, "points": [[0, 1, 0], [1, 1, 0]]}
    code, text = run_cli(["germ-check"], payload, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["all_equal"] is True
    assert len(result["points"]) == 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "padharm.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_unknown_suite(tmp_path, capsys):
    # run_suite checks the name and the flag values, so the error is the
    # JSON document with a pointer, not argparse's usage text
    for argv, pointer in ((["verify-suite", "nonsense"], "/suite"),
                          (["verify-suite", "fourier", "--samples", "x"],
                           "/samples")):
        code, _ = run_cli(argv, None, tmp_path)
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"].startswith(pointer + ":")


def test_dagger_gen_scalar_at_level_6_is_quick(tmp_path):
    start = time.perf_counter()
    code, text = run_cli(["dagger-gen"], {"kind": "scalar", "m": 6}, tmp_path)
    assert code == 0
    assert time.perf_counter() - start < 5
    assert json.loads(text)["result"]["admissible"] is True


def test_a_failed_parse_leaves_no_trace(tmp_path, capsys):
    # main builds its parser once per process; each call parses afresh.
    # The values of --measure and --seed go into the config document, so
    # RunConfig rejects a bad one with its pointer; argparse still rejects
    # a flag the command does not take and a missing command.
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"n": 1, "sign": "minus"}))
    valid = ["--payload", str(path), "oi-nilpotent"]
    assert main(valid) == 0
    alone = capsys.readouterr().out
    assert '"measure": "unnormalized"' in alone
    for bad, pointer in ((["--measure", "bogus", "oi-nilpotent"], "/measure"),
                         (["--measure", "norm", "--seed", "x", "oi-nilpotent"],
                          "/seed")):
        assert main(bad) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"].startswith(pointer + ":")
    for bad in (["--measure", "norm", "oi-nilpotent", "--n", "2"],
                ["--measure", "norm"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(valid) == 0
    assert capsys.readouterr().out == alone


@pytest.mark.parametrize("spelling, mode", [
    ("norm", "normalized"), ("normalized", "normalized"),
    ("unnorm", "unnormalized"), ("unnormalized", "unnormalized")])
def test_measure_flag_takes_the_config_spellings(spelling, mode, tmp_path):
    # the flag overrides the config document's measure
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"measure": "unnorm" if mode == "normalized"
                               else "norm"}))
    code, text = run_cli(["--config", str(cfg), "--measure", spelling,
                          "oi-nilpotent"], {"n": 1}, tmp_path)
    assert code == 0
    assert json.loads(text)["result"]["measure"] == mode


def test_verify_suite_with_seed_and_pairs(tmp_path):
    # --seed is a top-level flag; main puts it into the config's seed
    code, text = run_cli(
        ["--seed", "3", "verify-suite", "local-constancy", "--pairs", "1"],
        None, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["passed"] is True
    assert result["stats"]["pairs"] == 1


# the verify-suite flags each suite takes, as the README's table lists them
SUITE_FLAGS = {
    "section-identities": {"n", "samples"},
    "triangularity": {"samples"},
    "nilpotent-orbits": set(),
    "fourier": {"samples"},
    "oi-nilpotent": set(),
    "transfer": {"samples"},
    "dagger": set(),
    "germ": {"m", "r"},
    "theorem-germ-gl": {"m", "r"},
    "local-factors": set(),
    "local-constancy": {"pairs"},
}
ALL_FLAGS = ("n", "samples", "pairs", "m", "r")


def test_suite_table_declares_the_documented_flags():
    declared = {name: set(suite_flags(name)) for name in SUITES}
    assert declared == SUITE_FLAGS
    # suite_flags reads the parameters that have a default, as inspect
    # does; the others are the ones run_suite supplies
    for name, fn in SUITES.items():
        params = inspect.signature(fn).parameters.values()
        assert suite_flags(name) == {
            p.name: p.default for p in params if p.default is not p.empty}
        assert {p.name for p in params if p.default is p.empty} <= {
            "ctx", "seed"}


@pytest.mark.parametrize("suite,flag", [
    (suite, flag) for suite, taken in SUITE_FLAGS.items()
    for flag in ALL_FLAGS if flag not in taken])
def test_undeclared_suite_flag_exits_2(suite, flag, tmp_path, capsys):
    code, _ = run_cli(["verify-suite", suite, f"--{flag}", "1"],
                      None, tmp_path)
    assert code == 2
    assert f'"/{flag}: not a flag of suite' in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("suite,flag", [
    (suite, flag) for suite, taken in SUITE_FLAGS.items()
    for flag in sorted(taken)])
def test_suite_flag_below_one_exits_2(suite, flag, value, tmp_path, capsys):
    code, _ = run_cli(["verify-suite", suite, f"--{flag}", value],
                      None, tmp_path)
    assert code == 2
    assert f'"/{flag}: must be >= 1' in capsys.readouterr().err


def test_suite_rank_is_bounded_by_max_n(tmp_path, capsys):
    argv = ["verify-suite", "section-identities", "--n", "4", "--samples", "1"]
    code, _ = run_cli(argv, None, tmp_path)
    assert code == 2
    assert '"/n: exceeds budgets/max_n = 3' in capsys.readouterr().err
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"budgets": {"max_n": 4}}))
    code, text = run_cli(["--config", str(cfg)] + argv, None, tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["passed"] is True
    assert result["stats"]["n_values"] == [1, 2, 3, 4]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_bad_seed_exits_2(seed, tmp_path, capsys):
    code, _ = run_cli(
        ["--seed", seed, "verify-suite", "fourier", "--samples", "1"],
        None, tmp_path)
    assert code == 2
    assert '"/seed: must be' in capsys.readouterr().err


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1]")
    code, _ = run_cli(["--config", str(cfg), "local-factors"], {}, tmp_path)
    assert code == 2
    assert '"/config: expected a JSON object' in capsys.readouterr().err


def test_run_suite_rejects_unknown_names_and_the_seed_flag():
    with pytest.raises(SchemaError, match="/suite: unknown suite"):
        run_suite("nonsense")
    with pytest.raises(SchemaError, match="/seed: not a flag"):
        run_suite("fourier", seed=1)


# The payloads of the README's command-line examples (and a Fourier
# packet), with the optional fields each command reads.  The contract
# test replaces each member and entry, at every depth, by each value of
# POOL: every run must end in exit 0, 2 or 3 with a JSON document.
CONTRACT_PAYLOADS = {
    "invariants": {"matrix": [[0, 1], [2, 0]]},
    "section": {"kind": "sigma", "a": ["1/2"], "b": [2, 3]},
    "oi-rs": {"X": [0, 1, 1, 0],
              "f": {"space": {"kind": "matrix-f", "k": 2},
                    "terms": [{"coeff": 1}]}},
    "oi-nilpotent": {"n": 2, "sign": "plus"},
    "transfer-factor": {"setting": "lie", "sign": "minus",
                        "matrix": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]},
    "match": {"matrix": [[[0, 1], [0, 1]], [[0, 1], [0, 2]]],
              "forms": [[1, 1], [1, 3]]},
    "dagger-gen": {"kind": "scalar", "m": 1, "k": 2, "unit": 1},
    "germ-check": {"m": 1, "r": 3, "points": [[0, 1, 0]]},
    "theorem-germ-gl": {"m": 1, "r": 3, "omega_tau": -1},
    "local-factors": {"q": 3, "n_max": 3},
    "fourier": {"packet": {"space": {"kind": "f", "dim": 1},
                           "terms": [{"coeff": 1, "exps": [1],
                                      "center": ["1/3"], "freq": [0]}]}},
}
POOL = (True, "x", [1], -1, 0, "1/2", {}, None, 2.5)


def _pointers(doc, pointer=""):
    """The JSON pointer of every member and entry of doc, at every depth."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield f"{pointer}/{key}"
        yield from _pointers(value, f"{pointer}/{key}")


def _replaced(doc, pointer, value):
    doc = copy.deepcopy(doc)
    *path, last = pointer[1:].split("/")
    node = doc
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return doc


def _call(command, payload, tmp_path, capsys):
    """(exit code, the JSON document printed) of one in-process run; a
    str payload is the payload file's text."""
    path = tmp_path / "payload.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    try:
        code = main(["--payload", str(path), command])
    except Exception as exc:  # an escape is a traceback at the shell
        pytest.fail(f"{command} {json.dumps(payload)}: {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (command, payload, code)
    assert "Traceback" not in out + err
    doc = json.loads(out if code == 0 else err)
    # a payload that is not well formed is refused at its pointer
    if code == 2 and doc["error"]["type"] == "SchemaError":
        assert doc["error"]["message"].startswith("/"), (command, payload)
    return code, doc


@pytest.mark.parametrize("command", sorted(CONTRACT_PAYLOADS))
def test_every_payload_field_ends_in_a_json_exit(command, tmp_path, capsys):
    base = CONTRACT_PAYLOADS[command]
    assert _call(command, base, tmp_path, capsys)[0] == 0
    for pointer in _pointers(base):
        for value in POOL:
            _call(command, _replaced(base, pointer, value), tmp_path, capsys)


@pytest.mark.parametrize("command, pointer", [
    ("dagger-gen", "/m"), ("dagger-gen", "/k"), ("germ-check", "/m"),
    ("germ-check", "/r"), ("theorem-germ-gl", "/m"), ("theorem-germ-gl", "/r"),
    ("oi-nilpotent", "/n"), ("local-factors", "/q"),
    ("local-factors", "/n_max"), ("fourier", "/packet/space/dim"),
    ("fourier", "/packet/terms/0/exps/0")])
def test_a_boolean_is_not_an_integer(command, pointer, tmp_path, capsys):
    payload = _replaced(CONTRACT_PAYLOADS[command], pointer, True)
    code, doc = _call(command, payload, tmp_path, capsys)
    assert code == 2
    assert doc["error"]["message"].startswith(pointer + ": expected an integer")


@pytest.mark.parametrize("command, payload, pointer", [
    ("section", {"kind": [1], "a": ["1/2"], "b": [2, 3]}, "/kind"),
    ("section", {"kind": {}, "a": ["1/2"], "b": [2, 3]}, "/kind"),
    ("oi-rs", {"X": [1], "f": CONTRACT_PAYLOADS["oi-rs"]["f"]}, "/X"),
    ("oi-rs", {"X": [0] * 9, "f": CONTRACT_PAYLOADS["oi-rs"]["f"]}, "/X"),
    ("dagger-gen", {"unit": "x"}, "/unit"),
    ("dagger-gen", {"unit": None}, "/unit"),
    ("dagger-gen", {"unit": 0}, "/unit"),
    ("dagger-gen", {"unit": 3}, "/unit"),
    # bounded before its k^2 coordinates are built
    ("fourier", {"packet": {"space": {"kind": "matrix-f", "k": 300},
                            "terms": [{"coeff": 1}]}}, "/packet/space/dim"),
    # tau times a matrix of F has plus parts 0, and a form's entries are
    # nonzero: both were NotInDomain with no pointer
    ("match", {"matrix": [[[0, 1], [0, 1]], [[1, 1], [0, 2]]]},
     "/matrix/1/0/0"),
    ("match", {"matrix": CONTRACT_PAYLOADS["match"]["matrix"],
               "forms": [[1, 1], [0, 3]]}, "/forms/1/0"),
])
def test_former_payload_escapes_name_their_field(command, payload, pointer,
                                                 tmp_path, capsys):
    code, doc = _call(command, payload, tmp_path, capsys)
    assert code == 2
    assert doc["error"]["type"] == "SchemaError"
    assert doc["error"]["message"].startswith(pointer + ":")


@pytest.mark.parametrize("command, text, code", [
    # a lattice of 3^100000: its volume is too long to print
    ("fourier", json.dumps({"packet": {"space": {"kind": "f", "dim": 1},
                                       "terms": [{"exps": [-100000]}]}}), 3),
    # invariants of 2000-digit entries have 6000 digits
    ("invariants", json.dumps({"matrix": [[int("1" * 2000)] * 3] * 3}), 3),
    # json refuses an integer literal of more than 4300 digits
    ("dagger-gen", '{"m": %s}' % ("1" * 5000), 2),
])
def test_big_numbers_end_in_json(command, text, code, tmp_path, capsys):
    assert _call(command, text, tmp_path, capsys)[0] == code


def _fourier_payload(exps, coeff=1):
    return {"packet": {"space": {"kind": "f", "dim": 1},
                       "terms": [{"coeff": coeff, "exps": [exps]}]}}


@pytest.mark.parametrize("exps", [10 ** 7, -10 ** 7, 8900])
def test_fourier_refuses_a_volume_too_long_to_print(exps, tmp_path, capsys):
    start = time.perf_counter()
    code, doc = _call("fourier", _fourier_payload(exps), tmp_path, capsys)
    assert code == 3 and doc["error"]["type"] == "ScaleExceeded"
    assert time.perf_counter() - start < 1


def test_fourier_below_the_print_bound_keeps_its_bytes(tmp_path):
    code, text = run_cli(["fourier"], _fourier_payload(8000), tmp_path)
    assert code == 0 and len(text) == 4259
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "17032c364d388cad215877dd24db7c091efaca219773d786d0cb066574da7e1a")


def _prints(config, payload):
    """Whether the transform, run without the command's early refusal,
    prints: 0 when it does, 3 when a coefficient is too long."""
    f = cli.parse_packet(payload["packet"], config, "/packet")
    try:
        cli.packet_json(f.fourier())
    except ScaleExceeded:
        return 3
    return 0


@pytest.mark.parametrize("psi_conductor", [0, 1])
@pytest.mark.parametrize("exps, coeff", [
    (8832, 1), (8833, 1), (8834, 1), (-8833, 1), (-8834, 1),
    # a coefficient that cancels the volume: p^8900 has 4247 digits
    (8900, 3 ** 8900), (8900, 3 ** 8899), (8900, 2 * 3 ** 8900),
    (-8900, f"1/{3 ** 8900}"), (8900, {"terms": [["0", 3 ** 8900],
                                                 ["1/3", 3 ** 8899]]}),
])
def test_fourier_refuses_exactly_what_would_not_print(
        exps, coeff, psi_conductor, tmp_path, capsys):
    doc = {"psi_conductor": psi_conductor}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    payload = _fourier_payload(exps, coeff)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = main(["--config", str(cfg), "--payload", str(path), "fourier"])
    capsys.readouterr()
    assert code == _prints(RunConfig(doc), payload)


@pytest.mark.parametrize("n_max, config, code", [
    (4, {}, 0), (5, {}, 2), (200, {}, 2), (6, {"budgets": {"max_n": 5}}, 0)])
def test_local_factors_bounds_n_max_by_max_n(n_max, config, code, tmp_path,
                                             capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"q": 3, "n_max": n_max}))
    start = time.perf_counter()
    assert main(["--config", str(cfg), "--payload", str(path),
                 "local-factors"]) == code
    if code == 2:
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"].startswith("/n_max: exceeds")
        assert time.perf_counter() - start < 1


def test_an_over_long_integer_on_stdin_is_a_schema_error():
    proc = subprocess.run(
        [sys.executable, "-m", "padharm.cli", "dagger-gen"],
        input='{"m": %s}' % ("1" * 5000), capture_output=True, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["message"].startswith(
        "/payload: invalid JSON on stdin")


def test_frac_str_bound_reads_bit_length():
    big = 2 ** cli.MAX_PRINTED_BITS
    assert cli.frac_str(big - 1) == str(big - 1)
    with pytest.raises(ScaleExceeded):
        cli.frac_str(Fraction(1, big))


@pytest.mark.parametrize("matrix, invariants", [
    # a fuzzy zero of the truncated arithmetic: now an exact answer
    ([[[0, 1], [0, 1], [0, 0]], [[0, 1], [0, 1], [0, 1]],
      [[0, 1], [0, 1], [0, 0]]],
     {"a": [["0", "2"], ["0", "0"]], "b": [["0", "0"], ["2", "0"], ["0", "4"]]}),
    # b_1 = -delta and a_1 = tau/2, printed as rationals
    ([[[0, 0], [0, 1]], [[0, -1], [0, 0]]],
     {"a": [["0", "0"]], "b": [["0", "0"], ["-2", "0"]]}),
    ([[[0, "1/2"], [0, 1]], [[0, -1], [0, 0]]],
     {"a": [["0", "1/2"]], "b": [["0", "0"], ["-2", "0"]]}),
])
def test_transfer_factor_prints_exact_invariants(matrix, invariants, tmp_path,
                                                 capsys):
    code, doc = _call("transfer-factor", {"matrix": matrix}, tmp_path, capsys)
    assert code == 0
    assert doc["result"]["invariants"] == invariants


# str with quotes, backslashes, control characters, DEL, non-ASCII, a
# line separator, an astral character and a lone surrogate, mixed with
# arbitrary text
_TEXT = st.text(alphabet=st.sampled_from(
    '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\xe9\u2028\U0001f600\ud800ab')
    | st.characters(), max_size=12)
_LEAVES = (st.none() | st.booleans() | _TEXT | st.integers()
           | st.integers(min_value=-10 ** 60, max_value=10 ** 60))
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_the_json_writer_is_json_dumps(obj):
    # the printed text is json.dumps(sort_keys=True, indent=2) byte for
    # byte: nested and empty containers, tuples, escapes, bignums
    want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert cli.json_text(obj) + "\n" == want
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(obj, None)
    assert out.getvalue() == want


@pytest.mark.parametrize("obj", [
    1.5, float("nan"), Fraction(1, 2), {1, 2}, object(), b"bytes",
    [0, 0.5], {"a": {"b": 2.0}}, {1: "int key"}, {None: "null key"},
    {"a": 1, 2: "mixed keys"}],
    ids=["float", "nan", "Fraction", "set", "object", "bytes", "nested-float",
         "deep-float", "int-key", "None-key", "mixed-keys"])
def test_the_json_writer_refuses_any_other_type(obj):
    # no command builds a float or a non-str key, and the writer takes
    # none: json.dumps would print a float's repr and stringify the keys,
    # the writer raises TypeError instead, as json.dumps does for a type
    # it does not know
    with pytest.raises(TypeError):
        cli.json_text(obj)
