import argparse
import json
import sys

import pytest

from monocurves import NumericalSemigroup, cli, parse_polynomial
from monocurves.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_semigroup_json(capsys):
    payload = run_json(capsys, "semigroup", "3", "5", "7")
    assert payload["schema"] == "monocurves/1"
    assert (payload["m"], payload["e"]) == (3, 3)
    assert (payload["F"], payload["c"]) == (4, 5)
    assert payload["symmetric"] is False
    assert payload["gaps"] == [1, 2, 4]
    payload = run_json(capsys, "semigroup", "1")
    assert (payload["F"], payload["c"], payload["genus"]) == (-1, 0, 0)
    assert payload["symmetric"] is True
    assert payload["gaps"] == []


def test_semigroup_text(capsys):
    code, out, _ = run(capsys, "semigroup", "3", "5", "7")
    assert code == 0
    assert "frobenius 4" in out
    assert "gaps: 1 2 4" in out


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "betti", "3", "5", "7", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_betti(capsys):
    # N itself has the zero ideal: its reduction has no variable left
    assert run_json(capsys, "betti", "1")["betti"] == []
    assert run_json(capsys, "betti", "2", "3")["betti"] == [1]
    assert run_json(capsys, "betti", "3", "5", "7")["betti"] == [3, 2]


def test_betti_builds_no_kernel_and_no_basis(capsys, monkeypatch):
    # betti takes Koszul homology over Ap(S, m): spies on the kernel read off
    # Ap(S, m), under every name a module holds it by, and on GroebnerBasis
    from monocurves import groebner, toric

    built = []
    kernel, init = toric._apery_kernel, groebner.GroebnerBasis.__init__

    def kernel_spy(*args, **kwargs):
        built.append("kernel")
        return kernel(*args, **kwargs)

    def init_spy(self, *args, **kwargs):
        built.append("basis")
        init(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "monocurves" and vars(module).get("_apery_kernel") is kernel:
            monkeypatch.setattr(module, "_apery_kernel", kernel_spy)
    monkeypatch.setattr(groebner.GroebnerBasis, "__init__", init_spy)
    for gens in [("3", "5", "7"), ("12", "15", "20", "23"), ("20", "15", "23", "12")]:
        assert run(capsys, "betti", *gens)[0] == 0
    assert run(capsys, "betti", "40", "41", "43", "47", "53", "59", "61", "--max-vars", "7",
               "--format", "json")[0] == 0
    assert built == []
    # the spies see what resolution builds
    assert run(capsys, "resolution", "3", "5", "7")[0] == 0
    assert "kernel" in built and "basis" in built


def test_ideal(capsys):
    payload = run_json(capsys, "ideal", "3", "5", "7")
    assert payload["beta1"] == 3
    assert len(payload["minimal_generators"]) == 3


def test_ideal_normalizes_generators(capsys):
    payload = run_json(capsys, "ideal", "2", "3", "4")
    assert payload["generators"] == [2, 3]


def test_groebner_orders(capsys):
    a = run_json(capsys, "groebner", "3", "5", "7")
    b = run_json(capsys, "groebner", "3", "5", "7", "--order", "lex")
    assert a["size"] >= 3 and b["size"] >= 3
    assert a["order"]["kind"] == "weighted"
    assert b["order"]["kind"] == "lex"


def test_groebner_perm(capsys):
    payload = run_json(capsys, "groebner", "3", "5", "7", "--order", "lex", "--perm", "2,1,0")
    assert payload["order"] == {"kind": "lex", "perm": [2, 1, 0], "weights": None}
    assert payload["basis"] == ["-x0^5 + x1^3", "x0*x2 - x1^2", "-x0^4 + x1*x2",
                                "-x0^3*x1 + x2^2"]
    assert run(capsys, "groebner", "3", "5", "7", "--perm", "0,1") == (
        1, "", "error: perm must permute 0..2, got (0, 1)\n")
    assert run(capsys, "groebner", "3", "5", "7", "--perm", "a") == (
        1, "", "error: --perm wants comma-separated variable indices, got 'a'\n")


def test_resolution(capsys):
    payload = run_json(capsys, "resolution", "3", "5", "7")
    assert payload["ranks"] == [1, 3, 2]
    assert payload["minimal"] is True
    raw = run_json(capsys, "resolution", "3", "5", "7", "--non-minimal")
    assert raw["minimal"] is False
    assert raw["ranks"][0] == 1


def test_derivations(capsys):
    payload = run_json(capsys, "derivations", "3", "5", "7")
    assert payload["delta_prime"] == [2, 4]
    assert payload["mu"] == 3
    assert payload["generator_exponents"] == [1, 3, 5]


def test_bresinsky(capsys):
    payload = run_json(capsys, "bresinsky", "--q2", "4")
    assert payload["n"] == [20, 15, 23, 12]
    assert len(payload["generators"]) == 8
    assert "beta" not in payload


def test_bresinsky_verify(capsys):
    payload = run_json(capsys, "bresinsky", "--q2", "4", "--verify")
    assert payload["beta"] == [8, 12, 5]
    assert payload["gb"] is True
    assert payload["generates"] is True


def test_homogenize(capsys):
    payload = run_json(capsys, "homogenize", "3", "4", "5")
    assert payload["homvar"] == "h"
    assert any("h" in g for g in payload["basis"])


def test_homvar_must_read_back(capsys):
    # a name the polynomial grammar cannot read back is refused
    for homvar in ("2", "x-1", "h'", ""):
        code, out, err = run(capsys, "homogenize", "3", "4", "5", "--homvar", homvar)
        assert (code, out) == (1, ""), homvar
        assert err == f"error: homogenizing variable {homvar!r} is not a name\n"
    payload = run_json(capsys, "homogenize", "3", "4", "5", "--homvar", "z9")
    for text in payload["basis"]:
        f = parse_polynomial(text, ("x0", "x1", "x2", "z9"))
        assert str(f) == text


@pytest.mark.parametrize("order", ["lex", "grlex", "grevlex", "weighted"])
def test_groebner_of_the_zero_ideal(capsys, order):
    # <1> is the polynomial ring in one variable: its ideal is 0
    payload = run_json(capsys, "groebner", "1", "--order", order)
    assert (payload["basis"], payload["size"]) == ([], 0)
    code, out, _ = run(capsys, "groebner", "1", "--order", order)
    assert (code, out) == (0, f"reduced Groebner basis ({order}), 0 elements\n")


def test_homogenize_the_zero_ideal(capsys):
    assert run_json(capsys, "homogenize", "1")["basis"] == []


@pytest.mark.parametrize("command", ["betti", "ideal", "resolution", "groebner"])
def test_one_semigroup_per_curve_command(capsys, monkeypatch, command):
    builds = []
    init = NumericalSemigroup.__init__

    def counting(self, generators):
        builds.append(tuple(generators))
        init(self, generators)

    monkeypatch.setattr(NumericalSemigroup, "__init__", counting)
    run_json(capsys, command, "9", "5", "7", "11")
    assert builds == [(9, 5, 7, 11)]


def test_concat_sweep(capsys):
    code, out, _ = run(capsys, "concat-sweep", "--a", "5", "--d", "3",
                       "--b", "18:19", "--p", "3")
    assert code == 0
    assert "error" in out and "beta=" in out
    payload = run_json(capsys, "concat-sweep", "--a", "5", "--d", "3",
                       "--b", "19", "--p", "3")
    assert payload["rows"][0]["beta1"] == 6


def test_concat_sweep_rejects_bad_ranges(capsys):
    for text, message in [("5:3", "range '5:3' is empty: 3 < 5"),
                          ("5:", "range '5:' is not an integer or lo:hi"),
                          (":5", "range ':5' is not an integer or lo:hi")]:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "concat-sweep", "--a", text, "--d", "3",
                                 "--b", "19", "--format", fmt)
            assert (code, out, err) == (1, "", f"error: {message}\n"), (text, fmt)


def test_concat_sweep_guards_every_generator(capsys):
    # p = 6 concatenates the 7 generators 13, 15, 17, 19, 21, 22, 24
    code, out, err = run(capsys, "concat-sweep", "--a", "13", "--d", "2",
                         "--b", "22", "--p", "6")
    assert (code, out) == (2, "")
    assert "7 variables exceed the bound 6" in err
    code, _, err = run(capsys, "betti", "13", "15", "17", "19", "21", "22", "24")
    assert code == 2
    assert "7 variables exceed the bound 6" in err


def test_concat_sweep_counts_before_it_builds(capsys):
    # the p + 1 generators of a grid point are counted before any is built
    code, out, err = run(capsys, "concat-sweep", "--a", "5", "--d", "3", "--b", "19",
                         "--p", "1000000000000")
    assert (code, out) == (2, "")
    assert err == ("error: computation exceeds configured bounds "
                   "(1000000000001 variables exceed the bound 6)\n")


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "semigroup", "4", "6")
    assert code == 1
    assert err.strip().count("\n") == 0  # one-line diagnostic
    code, _, _ = run(capsys, "bresinsky", "--q2", "5")
    assert code == 1
    code, _, _ = run(capsys, "semigroup", "3", "-5")
    assert code == 1


def test_guard_exit_code(capsys):
    code, _, err = run(capsys, "semigroup", "101", "103")
    assert code == 2
    assert "bounds" in err
    code, _, _ = run(capsys, "semigroup", "101", "103",
                     "--max-conductor", "20000")
    assert code == 0
    code, _, _ = run(capsys, "betti", "3", "5", "7", "11", "13", "16", "17")
    assert code == 2  # too many variables
    code, _, err = run(capsys, "ideal", "--max-gb", "2", "12", "15", "20", "23")
    assert code == 2  # the kernel's Groebner basis outgrows 2 elements
    assert "exceeded 2 elements" in err
    # ideal reads 8 elements off Ap(S, 12) and completes them to 11
    code, _, err = run(capsys, "ideal", "--max-gb", "10", "12", "15", "20", "23")
    assert code == 2 and "exceeded 10 elements" in err
    code, _, _ = run(capsys, "ideal", "--max-gb", "11", "12", "15", "20", "23")
    assert code == 0


def test_negative_guards_are_usage_errors(capsys):
    # a bound below 0 is malformed input (exit 1), not work over budget
    for argv in [("ideal", "3", "5", "7", "--max-gb", "-1"),
                 ("betti", "3", "5", "7", "--max-vars", "-1"),
                 ("semigroup", "3", "5", "7", "--max-conductor", "-1"),
                 ("bresinsky", "--q2", "4", "--verify", "--max-gb", "-1"),
                 ("concat-sweep", "--a", "5", "--d", "3", "--b", "19", "--max-vars", "-2")]:
        code, out, err = run(capsys, *argv)
        flag, value = argv[-2:]
        assert (code, out) == (1, ""), argv
        assert err.endswith(f"error: argument {flag}: must be at least 0, got {value}\n"), argv
    code, _, err = run(capsys, "ideal", "3", "5", "7", "--max-gb", "x")
    assert code == 1 and "argument --max-gb: invalid int value: 'x'" in err
    # 0 is a bound: the kernel of (3, 5, 7) exceeds it
    code, _, err = run(capsys, "ideal", "3", "5", "7", "--max-gb", "0")
    assert code == 2 and "exceeded 0 elements" in err


def test_no_command_takes_a_guard_it_does_not_read(capsys):
    # semigroup, derivations and betti build no Groebner basis, and a
    # Bresinsky curve always has 4 variables
    for argv, flag in [(("semigroup", "3", "5", "7", "--max-gb", "5"), "--max-gb"),
                       (("derivations", "3", "5", "7", "--max-gb", "5"), "--max-gb"),
                       (("betti", "3", "5", "7", "--max-gb", "5"), "--max-gb"),
                       (("bresinsky", "--q2", "4", "--max-vars", "6"), "--max-vars")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"unrecognized arguments: {flag}" in err, argv
    code, _, err = run(capsys, "bresinsky", "--q2", "4", "--max-conductor", "10")
    assert code == 2 and "conductor bound" in err
    code, _, err = run(capsys, "bresinsky", "--q2", "4", "--verify", "--max-gb", "3")
    assert code == 2 and "exceeded 3 elements" in err
    # the q2 = 4 kernel has 8 elements, and verify grows no basis beyond them
    code, _, err = run(capsys, "bresinsky", "--q2", "4", "--verify", "--max-gb", "7")
    assert code == 2 and "exceeded 7 elements" in err
    code, _, _ = run(capsys, "bresinsky", "--q2", "4", "--verify", "--max-gb", "8")
    assert code == 0


def test_broken_invariant_exit_code(capsys, monkeypatch):
    from monocurves import families

    def broken(*args, **kwargs):
        raise AssertionError("syzygy does not annihilate the basis")

    monkeypatch.setattr(families, "_curve_row", broken)
    assert main(["concat-sweep", "--a", "5", "--d", "3", "--b", "19"]) == 3
    err = capsys.readouterr().err
    assert err == ("error: internal invariant broken: "
                   "syzygy does not annihilate the basis\n")


def test_usage_error_exit_code(capsys):
    assert main(["semigroup"]) == 1
    capsys.readouterr()
    # the parser of every command names its subcommand argument "command"
    assert run(capsys) == (1, "", "monocurves: error: the following arguments "
                                  "are required: command\n")
    code, out, err = run(capsys, "no-such-command")
    assert (code, out) == (1, "")
    assert err.startswith("monocurves: error: argument command: invalid choice: ")


def test_duplicate_and_unsorted_input(capsys):
    payload = run_json(capsys, "semigroup", "7", "3", "3", "5")
    assert payload["generators"] == [3, 5, 7]
    assert run_json(capsys, "betti", "7", "5", "3")["betti"] == [3, 2]


def test_exponent_limit_exit_code(capsys):
    # x0^32769 - x1^2 leaves the 16-bit fields of the resolution, which
    # reruns on wider ones; betti resolves nothing and reads Ap(S, 2)
    payload = run_json(capsys, "resolution", "2", "32769", "--max-conductor", "70000")
    assert payload["ranks"] == [1, 1] and payload["shifts"] == [[0], [65538]]
    code, out, err = run(capsys, "betti", "2", "32769", "--max-conductor", "70000")
    assert (code, out, err) == (0, "betti numbers: [1]\n", "")
    assert run_json(capsys, "betti", "2", "32767", "--max-conductor", "70000")["betti"] == [1]


# each command: a good call, then a malformed one (a non-int generator, or a
# non-int value where the command takes none), then one missing a required flag
_CALLS = {
    "semigroup": (["3", "5", "7"], ["3", "x"], None),
    "ideal": (["3", "5", "7"], ["x", "5"], None),
    "groebner": (["3", "5", "7", "--order", "lex"], ["3", "5.0"], None),
    "resolution": (["3", "5", "7"], ["3", "five"], None),
    "betti": (["3", "5", "7"], ["3", "5", "7x"], None),
    "bresinsky": (["--q2", "4"], ["--q2", "x"], ["--verify"]),
    "concat-sweep": (["--a", "5", "--d", "3", "--b", "19"],
                     ["--a", "5", "--d", "3", "--b", "19", "--p", "x"],
                     ["--a", "5", "--d", "3"]),
    "derivations": (["3", "5", "7"], ["3", "-"], None),
    "homogenize": (["3", "4", "5"], ["3", "4", "x"], None),
}
_ARGVS = [[], ["-h"], ["--help"], ["-x"], ["no-such-command"], ["--format", "json", "betti", "4", "5"]]
for _name, (_good, _bad, _missing) in _CALLS.items():
    _ARGVS += [[_name, "-h"], [_name, *_good], [_name, *_good, "--bogus"], [_name, *_bad]]
    if _missing:
        _ARGVS.append([_name, *_missing])


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_cli_matches_the_full_parser(capsys, monkeypatch, argv):
    # main builds the named command's parser alone; every help, error and
    # result must read as it does through the parser of every command
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        fast = run(capsys, *argv)
        with monkeypatch.context() as patch:
            full = build_parser()
            patch.setattr(cli, "_parser", lambda names: full)
            assert run(capsys, *argv) == fast, columns


@pytest.fixture
def added_parsers(monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    return added


def test_only_the_named_command_is_built(capsys, added_parsers):
    assert run(capsys, "betti", "3", "5", "7")[0] == 0
    assert added_parsers == ["betti"]
    added_parsers.clear()
    assert run(capsys)[0] == 1
    assert added_parsers == ["semigroup", "ideal", "groebner", "resolution", "betti",
                             "bresinsky", "concat-sweep", "derivations", "homogenize"]
    # the parser of one command keeps the usage line of all of them
    assert cli._parser(["betti"]).format_usage() == build_parser().format_usage()


def test_console_script_reads_sys_argv(capsys, monkeypatch, added_parsers):
    # the installed entry point calls main() with no argv
    argv = ["betti", "3", "5", "7", "--format", "json"]
    monkeypatch.setattr(sys, "argv", ["monocurves", *argv])
    assert main() == 0
    out = capsys.readouterr().out
    assert added_parsers == ["betti"]
    assert json.loads(out)["betti"] == [3, 2]
    assert run(capsys, *argv) == (0, out, "")
