import argparse
import hashlib
import io
import json
import shlex
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prodfree import cli
from prodfree.cli import main
from prodfree.constructions import greedy_random_productfree, odd_occurrence
from prodfree.density import profile
from prodfree.productfree import check_explicit
from prodfree.proofkit import chained_inequality_check
from prodfree.sets import Dfa, LayeredSet, explicit_from_words, read_dfa, write_dfa, write_explicit
from prodfree.words import Alphabet, read_word_list

from conftest import (
    DFA_ALPHABETS, Unsteppable, complete_dfas, density_json_oracle, dfa_full, set_words,
    write_word_list,
)

AB = Alphabet("ab")


@st.composite
def explicit_sets(draw) -> LayeredSet:
    """An explicit set over a or ab with any members, horizon 1..7."""
    alphabet = draw(st.sampled_from(DFA_ALPHABETS[:2]))
    horizon = draw(st.integers(1, 7))
    layers = [draw(st.integers(0, 2 ** alphabet.layer_size(n) - 1))
              for n in range(1, horizon + 1)]
    return LayeredSet(alphabet, horizon, (0, *layers))


@pytest.fixture
def odd_a_file(tmp_path):
    path = tmp_path / "odd_a.dfa"
    path.write_text(write_dfa(odd_occurrence(AB, "a")))
    return path


@pytest.fixture
def full_file(tmp_path):
    path = tmp_path / "full.dfa"
    path.write_text(write_dfa(dfa_full(AB)))
    return path


@pytest.fixture
def odd_words_file(tmp_path):
    s = explicit_from_words(
        [AB.word(t) for t in ["a", "b", "aaa", "aab", "aba", "abb",
                              "baa", "bab", "bba", "bbb"]],
        4,
    )
    path = tmp_path / "odd.words"
    path.write_text(write_word_list(set_words(s), AB, 4))
    return path


class TestCheck:
    def test_product_free_exit_zero(self, odd_a_file, capsys):
        assert main(["check", "--dfa", str(odd_a_file)]) == 0
        assert "product-free" in capsys.readouterr().out

    def test_witness_exit_one(self, full_file, capsys):
        assert main(["check", "--dfa", str(full_file)]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] + lines[1] == lines[2]

    def test_words_input(self, odd_words_file):
        assert main(["check", "--words", str(odd_words_file)]) == 0

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["check", "--dfa", str(tmp_path / "nope.dfa")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.dfa"
        bad.write_text("alphabet: ab\nstates: 1\nstart: 0\naccept:\n")
        assert main(["check", "--dfa", str(bad)]) == 2
        assert "incomplete" in capsys.readouterr().err

    def test_superscript_state_count_exit_two(self, tmp_path, capsys):
        # "²".isdigit() holds but int("²") fails: the error names the line.
        bad = tmp_path / "bad.dfa"
        bad.write_text(write_dfa(dfa_full(AB)).replace("states: 2", "states: ²"))
        assert main(["check", "--dfa", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 2: bad state count '²'\n"

    def test_arabic_indic_digits_exit_two(self, tmp_path, capsys):
        # Every number in Arabic-Indic digits, which str.isdecimal() and
        # int() accept: the file is refused at its first number.
        bad = tmp_path / "bad.dfa"
        bad.write_text(
            "alphabet: ab\nstates: \u0662\nstart: \u0660\naccept: \u0661\n"
            + "".join(
                f"trans: {s} {c} {t}\n"
                for s, c, t in [("\u0660", "a", "\u0661"), ("\u0660", "b", "\u0660"),
                                ("\u0661", "a", "\u0660"), ("\u0661", "b", "\u0661")]
            ),
            encoding="utf-8",
        )
        assert main(["check", "--dfa", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 2: bad state count '\u0662'\n"

    @pytest.mark.parametrize("flags", [
        [], ["--dfa", "x.dfa", "--words", "x.words"],
    ], ids=["neither", "both"])
    def test_input_flags_exactly_one_exit_two(self, flags, capsys):
        # argparse refuses the command line before any file is read.
        with pytest.raises(SystemExit) as exc:
            main(["check", *flags])
        assert exc.value.code == 2
        assert "--dfa" in capsys.readouterr().err


class TestDensity:
    def test_csv_all_half(self, odd_a_file, capsys):
        assert main(["density", "--dfa", str(odd_a_file), "--horizon", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,count,total,density_num,density_den"
        assert len(lines) == 65
        for line in lines[1:]:
            assert line.endswith(",1,2")

    def test_json_report(self, odd_a_file, capsys):
        assert main([
            "density", "--dfa", str(odd_a_file), "--horizon", "64",
            "--format", "json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["asymptotic"]["value"] == "1/2"
        assert report["asymptotic"]["exact"] is True
        assert report["banach"]["value"] == "1/2"
        assert report["banach"]["exact"] is True
        assert len(report["profile"]) == 64

    @pytest.mark.parametrize("construct, horizon", [
        (["random", "--seed", "1", "--max-len", "5"], 5),
        (["pathology", "--c", "2"], 6),
    ], ids=["random", "pathology"])
    def test_short_word_list_gets_one_window(self, construct, horizon, tmp_path, capsys):
        words = tmp_path / "short.words"
        assert main(["construct", *construct, "--out", str(words)]) == 0
        assert main(["density", "--words", str(words), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["horizon"] == report["banach"]["min_window"] == horizon
        assert report["banach"]["window"] == [1, horizon]
        assert main(["density", "--words", str(words), "--format", "text"]) == 0
        assert f"window [1, {horizon}]" in capsys.readouterr().out.splitlines()[-1]
        # A min window asked for is never capped.
        assert main(["density", "--words", str(words), "--format", "json",
                     "--min-window", "8"]) == 2
        assert capsys.readouterr().err == f"error: min window 8 outside 1..{horizon}\n"

    def test_text_mode(self, odd_a_file, capsys):
        assert main([
            "density", "--dfa", str(odd_a_file), "--format", "text",
        ]) == 0
        out = capsys.readouterr().out
        assert "exactly 1/2" in out

    def test_refuses_past_the_horizon_cap_before_stepping(self, odd_a_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "read_dfa", lambda text: Unsteppable())
        # The stand-in does catch a step ...
        with pytest.raises(AssertionError, match="stepped"):
            main(["density", "--dfa", str(odd_a_file), "--horizon", "8"])
        # ... and past the cap the profile refuses before taking one.
        assert main(["density", "--dfa", str(odd_a_file), "--horizon", "8193"]) == 2
        assert capsys.readouterr().err == (
            "error: automaton horizon 8193 over the enumeration budget\n")

    def test_out_file(self, odd_a_file, tmp_path):
        target = tmp_path / "profile.csv"
        assert main([
            "density", "--dfa", str(odd_a_file), "--horizon", "8",
            "--out", str(target),
        ]) == 0
        assert target.read_text().startswith("n,count")

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(case=st.one_of(
        st.tuples(st.sampled_from(DFA_ALPHABETS).flatmap(complete_dfas), st.integers(1, 40)),
        explicit_sets().map(lambda s: (s, None)),
    ), window=st.integers(0, 12), out=st.booleans())
    def test_json_bytes_match_the_oracle(self, case, window, out, tmp_path_factory):
        s, horizon = case
        prof = profile(s, horizon)
        min_window = min(window, prof.horizon) or None  # 0: the default
        path = tmp_path_factory.mktemp("json") / "in"
        if isinstance(s, Dfa):
            path.write_text(write_dfa(s))
            argv = ["density", "--dfa", str(path), "--horizon", str(horizon)]
        else:
            path.write_text(write_explicit(s))
            argv = ["density", "--words", str(path)]
        argv += ["--format", "json"]
        if min_window is not None:
            argv += ["--min-window", str(min_window)]
        target = path.with_name("out.json")
        if out:
            argv += ["--out", str(target)]
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(argv) == 0
        written = target.read_text() if out else stdout.getvalue()
        assert stdout.getvalue() == ("" if out else written)
        assert written == density_json_oracle(prof, min_window)

    @pytest.mark.parametrize("symbols", ["ab", "abc", "abcd"])
    def test_csv_totals_are_powers_of_q(self, symbols, tmp_path, capsys):
        path = tmp_path / "full.dfa"
        path.write_text(write_dfa(dfa_full(Alphabet(symbols))))
        assert main(["density", "--dfa", str(path), "--horizon", "2048",
                     "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        q = len(symbols)
        assert [row[2] for row in rows] == [str(q**n) for n in range(1, 2049)]

    def test_prints_integers_past_the_digit_limit(self, tmp_path, capsys):
        # 2**2200 has 663 digits, over the 640 set here (the interpreter's
        # default is 4,300): the CLI prints them and restores the limit.
        full, not_a = tmp_path / "full.dfa", tmp_path / "not_a.dfa"
        full.write_text(write_dfa(dfa_full(AB)))
        # Words other than a^n, whose densities (2**n - 1)/2**n do not reduce.
        s = Dfa(AB, 3, 0, frozenset({2}), ((1, 2), (1, 2), (2, 2)))
        not_a.write_text(write_dfa(s))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            codes = [main(["density", "--dfa", str(full), "--horizon", "2200",
                           "--format", fmt]) for fmt in ("csv", "json")]
            codes.append(main(["verify-prop", "--dfa", str(not_a), "--lengths", "1",
                               "--n", "2200"]))
            limit = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(saved)
        assert codes == [0, 0, 1] and limit == 640
        out = capsys.readouterr().out
        csv, report, prop = out.split("\n{")
        assert int(csv.splitlines()[-1].split(",")[2]) == 2**2200
        assert json.loads("{" + report)["profile"][-1]["total"] == 2**2200
        lhs = chained_inequality_check(s, (1,), 2200).lhs
        assert json.loads("{" + prop)["lhs"] == f"{lhs.numerator}/{lhs.denominator}"


class TestConstruct:
    def test_odd_occurrence_round_trip(self, tmp_path):
        out = tmp_path / "gamma.dfa"
        assert main([
            "construct", "odd-occurrence", "--gamma", "a", "--out", str(out),
        ]) == 0
        assert read_dfa(out.read_text()) == odd_occurrence(AB, "a")

    def test_pathology_word_list(self, tmp_path):
        out = tmp_path / "blocks.words"
        assert main([
            "construct", "pathology", "--c", "2", "--out", str(out),
        ]) == 0
        alphabet, horizon, words = read_word_list(out.read_text())
        assert horizon == 6
        assert {len(w) for w in words} == {5, 6}

    def test_random_matches_library(self, tmp_path):
        out = tmp_path / "random.words"
        assert main([
            "construct", "random", "--seed", "9", "--max-len", "6",
            "--out", str(out),
        ]) == 0
        alphabet, horizon, words = read_word_list(out.read_text())
        expected = greedy_random_productfree(AB, 6, 9)
        assert explicit_from_words(words, horizon) == expected

    def test_asymmetric_files(self, tmp_path, capsys):
        prefix = tmp_path / "tri"
        assert main([
            "construct", "asymmetric", "--n", "4", "--eps", "1/10",
            "--out", str(prefix),
        ]) == 0
        for tag in ("x", "y", "z"):
            read_dfa((tmp_path / f"tri.{tag}.dfa").read_text())
        _, _, words = read_word_list((tmp_path / "tri.w.words").read_text())
        assert len(words) == 9

    def test_asymmetric_gate_exit_two(self, tmp_path, monkeypatch, capsys):
        # floor(8 phi) = 4 words of 8 give X and Y density 1/2 < phi - 1/10.
        monkeypatch.chdir(tmp_path)
        assert main([
            "construct", "asymmetric", "--n", "3", "--eps", "1/10",
            "--out", str(tmp_path / "tri"),
        ]) == 2
        assert "not above phi - 1/10" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_eps_exit_two(self, tmp_path, capsys):
        assert main([
            "construct", "asymmetric", "--n", "4", "--eps", "zero",
        ]) == 2
        assert "bad rational" in capsys.readouterr().err


class TestVerifyProp:
    def test_ok_case(self, odd_a_file, capsys):
        assert main([
            "verify-prop", "--dfa", str(odd_a_file), "--lengths", "1", "--n", "3",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lhs"] == "3/4"
        assert payload["mid"] == "3/4"
        assert payload["ok"] is True

    def test_violation_exit_one(self, full_file, capsys):
        assert main([
            "verify-prop", "--dfa", str(full_file), "--lengths", "1", "--n", "2",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False


class TestCertify:
    def test_odd_a_trace(self, odd_a_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "certify", "--dfa", str(odd_a_file), "--eps", "1/16",
            "--horizon", "48", "--trace", str(trace),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lengths"] == [1]
        assert payload["stop_reason"] == "exhausted"
        assert payload["all_hold"] is True
        assert payload["window_certificates"]
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and all(r["qualifies"] is False for r in records)

    def test_deterministic_output(self, odd_a_file, capsys):
        main(["certify", "--dfa", str(odd_a_file), "--horizon", "32"])
        first = capsys.readouterr().out
        main(["certify", "--dfa", str(odd_a_file), "--horizon", "32"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("window", ["0", "-1", "9", "100"])
    def test_min_window_below_one_exit_two(self, odd_a_file, window, capsys):
        # A window of length 0 would double forever; -1 made a reversed one.
        # One longer than the horizon fits nowhere: the run would check no
        # window and still report "all_hold": true.
        assert main(["certify", "--dfa", str(odd_a_file), "--horizon", "8",
                     "--min-window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: min window {window} outside 1..8\n"


def _readme_cli_lines() -> list[str]:
    """The `prodfree ...` lines of the README's CLI section, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("prodfree ")]


class TestReadme:
    def test_cli_examples_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        lines = _readme_cli_lines()
        assert lines
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            assert main(argv) == 0, (line, capsys.readouterr().err)


class TestParser:
    def test_built_once(self, monkeypatch, capsys):
        getattr(cli.build_parser, "cache_clear", lambda: None)()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "prodfree":
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["search", "--horizon", "1"]) == 0
        assert main(["search", "--horizon", "2"]) == 0
        assert len(built) == 1


class TestOversizedInputs:
    @pytest.mark.parametrize("argv", [
        ["search", "--horizon", "40"],
        ["construct", "random", "--seed", "1", "--max-len", "40"],
        ["construct", "asymmetric", "--n", "40", "--eps", "1/10"],
        ["search", "--horizon", "12", "--budget", "1"],
        ["check", "--dfa", "cycle.dfa"],
        ["density", "--dfa", "odd.dfa", "--horizon", "1000000", "--format", "csv"],
        ["certify", "--dfa", "odd.dfa", "--horizon", "1000000"],
        ["phi-levelset", "--dfa", "odd.dfa", "--horizon", "1000000"],
        ["verify-prop", "--dfa", "odd.dfa", "--lengths", "1,999999", "--n", "1000000"],
    ])
    def test_refused_before_allocating(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # A 2,100-state cycle: pair automata pass the budget from 2,048 states.
        cycle = tuple((s + 1) % 2100 for s in range(2100))
        (tmp_path / "cycle.dfa").write_text(
            write_dfa(Dfa(AB, 2100, 0, frozenset({1}), tuple(zip(cycle, cycle)))))
        (tmp_path / "odd.dfa").write_text(write_dfa(odd_occurrence(AB, "a")))
        started = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - started < 1
        assert "enumeration budget" in capsys.readouterr().err


class TestWordListErrors:
    @pytest.mark.parametrize("mode", [
        ["random", "--seed", "1", "--max-len", "3"],
        ["odd-occurrence", "--gamma", "a"],
    ])
    def test_alphabet_a_file_cannot_carry(self, mode, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["construct", *mode, "--alphabet", "a#", "--out", str(out)]) == 2
        assert "'#' or whitespace" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["1_0", "+1", "a b"])
    def test_characters_int_accepts_exit_two(self, line, tmp_path, capsys):
        path = tmp_path / "bad.words"
        path.write_text(f"alphabet: ab\nab\n{line}\n")
        assert main(["check", "--words", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: symbol ")

    def test_duplicate_horizon_exit_two(self, tmp_path, capsys):
        path = tmp_path / "twice.words"
        path.write_text("alphabet: ab\nhorizon: 3\nhorizon: 1\naaa\n")
        assert main(["density", "--words", str(path)]) == 2
        assert "line 3: duplicate horizon header" in capsys.readouterr().err


class TestSearch:
    def test_known_optimum_at_horizon_two(self, capsys):
        for flags, objective, value in [([], "mean", "5/8"),
                                        (["--objective", "total"], "total", "5/4")]:
            assert main(["search", "--alphabet", "ab", "--horizon", "2", *flags]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["objective"] == objective
            assert payload["value"] == value
            assert payload["optimal"] is True

    def test_witness_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "witness.words"
        assert main([
            "search", "--alphabet", "ab", "--horizon", "3", "--out", str(out),
        ]) == 0
        _, horizon, words = read_word_list(out.read_text())
        s = explicit_from_words(words, horizon)
        assert check_explicit(s) is None

    def test_stats_to_stderr(self, capsys):
        assert main(["search", "--alphabet", "ab", "--horizon", "2", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "nodes=" in captured.err
        assert "nodes" not in captured.out

    def test_unknown_objective_exit_two(self, capsys):
        # argparse refuses the objective before any search runs.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--horizon", "2", "--objective", "median"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--objective" in captured.err
        assert captured.out == ""

    def test_negative_budget_exit_two(self, capsys):
        assert main(["search", "--horizon", "2", "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert "node budget must be >= 0" in captured.err
        assert captured.out == ""


class TestPhiLevelSet:
    def test_odd_length_sum_free(self, tmp_path, capsys):
        path = tmp_path / "odd_len.dfa"
        path.write_text(write_dfa(odd_occurrence(AB, "ab")))
        assert main([
            "phi-levelset", "--dfa", str(path), "--horizon", "16",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["level_set"] == list(range(1, 17, 2))
        assert payload["sum_free"] is True

    def test_violation_exit_one(self, full_file, capsys):
        assert main([
            "phi-levelset", "--dfa", str(full_file), "--horizon", "8",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_free"] is False
        a, b, c = payload["violation"]
        assert a + b == c


class TestRoundTrips:
    def test_emitted_dfa_reparses_identically(self, tmp_path):
        out = tmp_path / "o.dfa"
        main(["construct", "odd-occurrence", "--gamma", "ab", "--out", str(out)])
        d = read_dfa(out.read_text())
        assert write_dfa(d) == out.read_text()

    def test_emitted_words_reparse_identically(self, tmp_path):
        out = tmp_path / "w.words"
        main(["construct", "random", "--seed", "4", "--max-len", "5",
              "--out", str(out)])
        alphabet, horizon, words = read_word_list(out.read_text())
        assert write_word_list(words, alphabet, horizon) == out.read_text()


# sha256 of (exit code, stdout) for each command, frozen from a reference
# build: a refactor must leave every byte of the CLI's stdout unchanged.
PINNED_COMMANDS = {
    "density-csv": ["density"],
    "density-json": ["density", "--format", "json"],
    "density-text": ["density", "--format", "text"],
    "certify": ["certify", "--min-window", "4"],
    "phi-levelset": ["phi-levelset"],
    "verify-prop": ["verify-prop", "--lengths", "1,2", "--n", "5"],
}
# The same for the files a command writes, through the flag that ends it.
PINNED_FILE_COMMANDS = {
    "certify-trace": ["certify", "--min-window", "4", "--trace"],
    "density-csv-out": ["density", "--out"],
    "density-json-out": ["density", "--format", "json", "--out"],
    "density-text-out": ["density", "--format", "text", "--out"],
}
PINNED_DIGESTS = {
    "odd_a/certify":
        "2db725daeb7236f30cb2563519bad37b9f509dd908ea0032cae2560fe91e9444",
    "odd_a/density-csv":
        "90a611404650602c03d2f29a4450e9c88e58e338a32ce1d4f65234ea21822ff8",
    "odd_a/density-json":
        "23f03e279a23ea5eafab7627a5a232eb74723101f2eadb1162a45b79a13ef921",
    "odd_a/density-text":
        "595a24e037becba7a8f18f32958b0460c536b5e60bd16c929b794676f8dd8e09",
    "odd_a/phi-levelset":
        "2fcf27400e4ac6d5e483d96966069b3bd27a1c4e70e7ceb4038472e39b1d78b6",
    "odd_a/verify-prop":
        "f2ead26bd8b082571a29e1110e55607ae0560a560e240a9e3b74fb71b0339ac6",
    "random/certify":
        "ea84c87fb186f84695ab0d70b678b86aa237768db60af2ca5d92db076aa56df2",
    "random/construct":
        "a2b008faf1d5fee9415480e51c454db28cd305e129b272a9693a70bed71bce08",
    "random/density-csv":
        "89c3f1c1c493213dfcc2657ce6609432dbb8dba271f8e49e96d901460e97e8cb",
    "random/density-json":
        "fd7ca480320268064cbb4bdbb40f712f6b26da2a3df436381b68afc0e72edc6d",
    "random/density-text":
        "da3829caf3d090defaec0096413db5489cb69031f796d202a12beb7d02acce7b",
    "random/phi-levelset":
        "a6b36e944804df789ff1ff534b3b85a0b96e89fff8a618027ed1216fd15263d2",
    "random/verify-prop":
        "08717cf9197f1095100ec602b669cfb3dca00101af13f8562451e501cf70a54d",
    "search":
        "f7ea9192fc9b2e2bccbad1840182dcf1bdf859b751804165ba88445082526026",
    "asymmetric/check-x":
        "a122bd84d63b750f0f815ed9a507dd16dd2bdbd1ba74cf059c9edb7e79d154e2",
    "asymmetric/check-y":
        "a122bd84d63b750f0f815ed9a507dd16dd2bdbd1ba74cf059c9edb7e79d154e2",
    "asymmetric/check-z":
        "0e80af334000773459f5c5b2a4411f2153e884f68f2382038cc5c72f896aba5e",
    "odd-occurrence/ab/a":
        "d970982e259ab3a0fce212bb32f5b2d53440f33876d5cb72eb239874c65a9447",
    "odd-occurrence/ab/b":
        "fffe7962bb992ba173c9c7650d7555ba9d9b004579d0f1b96e3b0e540171cb12",
    "odd-occurrence/ab/ab":
        "ac40236622f7634ff5e73fc458260ba460db425655fb1306562b629c3e5e5be6",
    "odd-occurrence/abc/a":
        "e8d01922f1dc8d3d47fbb11ff21320116e156660310034a811a072c8e13ef79d",
    "odd-occurrence/abc/b":
        "194a62e145a78661280cf1a03f3c924a21852b54e11f01bfff4640831e3e6450",
    "odd-occurrence/abc/c":
        "8ffbeb94c0c74a5e37b1877f9e41745f499d1a0788965de4d9887aeb3fbe8bb5",
    "odd-occurrence/abc/ab":
        "53129076c61cbfa33cd8c3575f65e8ab8787c86f0b6b7720d3f6366c944e408f",
    "odd-occurrence/abc/ac":
        "11713d059f32cfc40886e5fe819ecf01daa95a065b5cb627200d461196c028ca",
    "odd-occurrence/abc/bc":
        "c71b2d8993721f32f2488645a951634d20ed36aa5647a0829bf3131abda5b4f3",
    "odd-occurrence/abc/abc":
        "42875432b791a54290a209fb7ff60228506723770e0500baee7b775e6ba6b983",
    "asymmetric/ab-n5/w.words":
        "be35cf5ea56d6333df8e443cfb9afd14daf9e6f1d172364438732f8359cfabec",
    "asymmetric/ab-n5/x.dfa":
        "bfb97397d868891b78f1dca07604aae246dcafb4b44775c15f22e9ef006af729",
    "asymmetric/ab-n5/y.dfa":
        "bb778d1d5302b6fff4e5b2e59c6fab1a2b02f378cceb20f850df08b82b59ff9a",
    "asymmetric/ab-n5/z.dfa":
        "ed9d3a41c11d1a95b1ae4510167acf4fbf7c632931eaf9fcfa46d07bd8134d38",
    "asymmetric/abc-n3/w.words":
        "9d2e69340073080b956a45eeabf369170630b5986b4cb6eea707bbab4ff3cf8e",
    "asymmetric/abc-n3/x.dfa":
        "8d9be615919279b22ab218bfa4f85c5429bce3f7238bce9af955ba197366275a",
    "asymmetric/abc-n3/y.dfa":
        "e5d244d0fa62a64d4b4545991f02516aaa52c7eb34f8097bc51b4cbd27735b6a",
    "asymmetric/abc-n3/z.dfa":
        "dd12483e10a795faa480e68331f979d354e54415e8f23cabbdb7789d01a640c3",
    "odd_a/certify-trace":
        "7721c6d5704f5b3bad9c3f4b39d4963a59e102b6f5dce5df7cbbfd1c08559c53",
    "odd_a/density-csv-out":
        "46af8a90aa649c8dbd080066c1b063bfc66f34c4a56f53b68d71c26727d8fa24",
    "odd_a/density-json-out":
        "6f234443bc90b26ded38dd1186e0464dd4a47487ee6900dbb754d81266927272",
    "odd_a/density-text-out":
        "5109720e1cf202fb2ec40da2f4efb7bdc55922f7764e9865b8f7a6b8598b9ae0",
    # No window of length 4 fits above l_1 = 6 at horizon 8: nothing is probed.
    "random/certify-trace":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random/density-csv-out":
        "66d7d6c053c751a95483107b76e5f285766eee14ddd306e2270bc2d6dc72d6f9",
    "random/density-json-out":
        "3f8413328727d1c68afd772192a30411245f866788390da463d88647d93f6d88",
    "random/density-text-out":
        "cd5f7db72c6deca4d511e84bd54d89fc57cd79faa445ce1b0e825a2ccef6865f",
}


def _pinned_digest(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


class TestPinnedStdout:
    @pytest.mark.parametrize("command", sorted(PINNED_COMMANDS))
    def test_odd_a_dfa(self, command, odd_a_file, capsys):
        argv = [*PINNED_COMMANDS[command], "--dfa", str(odd_a_file)]
        assert _pinned_digest(argv, capsys) == PINNED_DIGESTS[f"odd_a/{command}"]

    @pytest.mark.parametrize("command", sorted(PINNED_COMMANDS))
    def test_random_fixture(self, command, tmp_path, capsys):
        words = tmp_path / "random.words"
        assert main(["construct", "random", "--seed", "7", "--max-len", "8",
                     "--out", str(words)]) == 0
        argv = [*PINNED_COMMANDS[command], "--words", str(words)]
        assert _pinned_digest(argv, capsys) == PINNED_DIGESTS[f"random/{command}"]

    @pytest.mark.parametrize("command", sorted(PINNED_FILE_COMMANDS))
    @pytest.mark.parametrize("source", ["odd_a", "random"])
    def test_written_file(self, source, command, odd_a_file, tmp_path):
        if source == "odd_a":
            flags = ["--dfa", str(odd_a_file)]
        else:
            words = tmp_path / "random.words"
            assert main(["construct", "random", "--seed", "7", "--max-len", "8",
                         "--out", str(words)]) == 0
            flags = ["--words", str(words)]
        target = tmp_path / "written"
        assert main([*PINNED_FILE_COMMANDS[command], str(target), *flags]) == 0
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == PINNED_DIGESTS[f"{source}/{command}"]

    def test_random_fixture_file(self, tmp_path, capsys):
        assert _pinned_digest(["construct", "random", "--seed", "7",
                               "--max-len", "8"], capsys) == PINNED_DIGESTS["random/construct"]

    def test_search(self, capsys):
        assert _pinned_digest(["search", "--horizon", "4"], capsys) == PINNED_DIGESTS["search"]

    @pytest.mark.parametrize("tag", ["x", "y", "z"])
    def test_asymmetric_check(self, tag, tmp_path, capsys):
        prefix = tmp_path / "tri"
        assert main(["construct", "asymmetric", "--alphabet", "ab", "--n", "5",
                     "--eps", "1/10", "--out", str(prefix)]) == 0
        capsys.readouterr()
        argv = ["check", "--dfa", f"{prefix}.{tag}.dfa"]
        assert _pinned_digest(argv, capsys) == PINNED_DIGESTS[f"asymmetric/check-{tag}"]

    @pytest.mark.parametrize("alphabet, gamma", [
        (alphabet, gamma)
        for alphabet, gammas in (("ab", ["a", "b", "ab"]),
                                 ("abc", ["a", "b", "c", "ab", "ac", "bc", "abc"]))
        for gamma in gammas
    ])
    def test_odd_occurrence(self, alphabet, gamma, capsys):
        argv = ["construct", "odd-occurrence", "--alphabet", alphabet, "--gamma", gamma]
        digest = PINNED_DIGESTS[f"odd-occurrence/{alphabet}/{gamma}"]
        assert _pinned_digest(argv, capsys) == digest

    @pytest.mark.parametrize("alphabet, n", [("ab", 5), ("abc", 3)])
    def test_asymmetric_files(self, alphabet, n, tmp_path, capsys):
        # Pins the automata byte for byte, not only their check verdicts.
        prefix = tmp_path / "tri"
        assert main(["construct", "asymmetric", "--alphabet", alphabet, "--n", str(n),
                     "--eps", "1/10", "--out", str(prefix)]) == 0
        for tag in ("w.words", "x.dfa", "y.dfa", "z.dfa"):
            digest = hashlib.sha256(Path(f"{prefix}.{tag}").read_bytes()).hexdigest()
            assert digest == PINNED_DIGESTS[f"asymmetric/{alphabet}-n{n}/{tag}"], tag
