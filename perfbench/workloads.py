"""The four benchmark workloads: seed-derived inputs, job lists, checks.

A job is one `prodfree.cli.main(argv)` call, run with the working directory
set to the run's work directory.  Every job carries a check that
inspects its exit code, its stdout and the files it wrote; checks use the
benchmark's own parsers and brute-force oracles, plus the library oracles
`check_explicit` and `dfa_truncate` where a result must agree with the
other set representation.

Seeds only relabel and reorder: the alphabet letters, the odd-occurrence
symbols, the boolean composition and the fixture seeds all come from
`--seed`, while the amount of work per job stays nearly the same, so that
runs with different seeds measure the same thing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path
from typing import Callable

from prodfree import cli
from prodfree.productfree import check_explicit
from prodfree.sets import dfa_truncate, explicit_from_words, read_dfa
from prodfree.words import read_word_list

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Proved optima of the mean layer density over F_<=(N), two letters.
OPTIMA_Q2 = {1: Fraction(1), 2: Fraction(5, 8), 3: Fraction(2, 3),
             4: Fraction(9, 16), 5: Fraction(3, 5), 6: Fraction(13, 24),
             7: Fraction(4, 7)}

# Largest layer enumerated by the dfa_truncate oracle.
TRUNCATE_WORDS = 1 << 12

# n of the asymmetric triple whose Z the limits workload profiles.
Z_N = 4


class CheckError(Exception):
    """A job's exit code or output is wrong."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Job:
    id: str
    argv: list[str]
    check: Callable[[int, str], None]
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Scale:
    # (q, horizon, node budget or None for a proved run)
    search: tuple[tuple[int, int, int | None], ...]
    json_horizon: int
    csv_horizon: int
    triples: tuple[tuple[int, int], ...]
    fixtures: int
    max_len: int


FULL = Scale(
    search=((2, 7, None), (3, 4, 100_000), (2, 8, 30_000), (2, 5, None)),
    json_horizon=512, csv_horizon=2048,
    triples=((2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5)),
    fixtures=8, max_len=12,
)

SMOKE = Scale(
    search=((2, 4, None), (3, 3, 2_000), (2, 4, 200), (2, 3, None)),
    json_horizon=64, csv_horizon=64,
    triples=((2, 4), (3, 3)),
    fixtures=1, max_len=8,
)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One job: prodfree.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Independent parsers and oracles


def fr(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def parse_words(text: str) -> tuple[str, int | None, list[str]]:
    symbols, horizon, words = None, None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            symbols = line.split(":", 1)[1].strip()
        elif line.startswith("horizon:"):
            horizon = int(line.split(":", 1)[1])
        else:
            words.append(line)
    expect(symbols is not None, "word list without an alphabet header")
    return symbols, horizon, words


class TextDfa:
    """The DFA file format, read without the library."""

    def __init__(self, text: str):
        self.accept: set[int] = set()
        self.trans: dict[tuple[int, str], int] = {}
        for line in text.splitlines():
            key, _, rest = line.partition(":")
            rest = rest.strip()
            if key == "alphabet":
                self.symbols = rest
            elif key == "start":
                self.start = int(rest)
            elif key == "accept":
                self.accept = {int(t) for t in rest.split()}
            elif key == "trans":
                s, c, t = rest.split()
                self.trans[(int(s), c)] = int(t)

    def accepts(self, word: str) -> bool:
        s = self.start
        for c in word:
            s = self.trans[(s, c)]
        return len(word) > 0 and s in self.accept

    def members(self, horizon: int) -> set[str]:
        return {"".join(w) for n in range(1, horizon + 1)
                for w in product(self.symbols, repeat=n)
                if self.accepts("".join(w))}


def layer_counts(words, horizon: int) -> list[int]:
    """counts[n] = members of length n, for n = 0..horizon."""
    c = Counter(len(w) for w in words)
    return [c.get(n, 0) for n in range(horizon + 1)]


def first_words(symbols: str, n: int, size: int) -> list[str]:
    """The lexicographically first `size` words of length n."""
    q = len(symbols)
    out = []
    for r in range(size):
        digits = []
        for _ in range(n):
            r, d = divmod(r, q)
            digits.append(symbols[d])
        out.append("".join(reversed(digits)))
    return out


def phi_floor(total: int) -> int:
    """floor(total * (sqrt(5) - 1) / 2)."""
    return (isqrt(5 * total * total) - total) // 2


def product_witness(words: set[str]) -> tuple[str, str, str] | None:
    """Some x, y, z in the set with x.y = z, by brute force."""
    for z in words:
        for m in range(1, len(z)):
            if z[:m] in words and z[m:] in words:
                return z[:m], z[m:], z
    return None


def chained(words: set[str], q: int, lengths: list[int], n: int):
    """Refined terms, lhs and mid of the chained inequality, by brute force."""
    counts = layer_counts(words, n)

    def survivors(ell: int, earlier: list[int]) -> int:
        return sum(1 for w in words if len(w) == ell
                   and not any(w[:j] in words for j in earlier))

    terms = [Fraction(survivors(ell, lengths[:i]), q**ell)
             for i, ell in enumerate(lengths)]
    d = [Fraction(c, q**m) if m else Fraction(0) for m, c in enumerate(counts)]
    lhs = sum((t * d[n - ell] for t, ell in zip(terms, lengths)), d[n])
    mid = sum(terms, Fraction(survivors(n, lengths), q**n))
    return terms, lhs, mid


def check_verify_prop(rc: int, out: str, words: set[str], q: int,
                      lengths: list[int], n: int, must_hold: bool) -> None:
    rep = json.loads(out)
    terms, lhs, mid = chained(words, q, lengths, n)
    expect(rep["n"] == n and rep["lengths"] == lengths, "verify-prop echo")
    expect([fr(t) for t in rep["refined_terms"]] == terms, "refined terms")
    expect(fr(rep["lhs"]) == lhs and fr(rep["mid"]) == mid, "lhs/mid")
    ok = lhs <= mid <= 1
    expect(rep["ok"] is ok and rc == (0 if ok else 1), "verify-prop verdict")
    expect(ok or not must_hold, "chained inequality fails on a product-free set")


def check_witness_lines(rc: int, out: str, members: Callable[[str], bool]):
    expect(rc == 1, f"check exit code {rc}, expected 1 with a witness")
    lines = out.split("\n")
    expect(len(lines) == 4 and lines[3] == "", "witness is not three lines")
    x, y, z = lines[:3]
    expect(x and y and x + y == z, f"witness {x}.{y} != {z}")
    expect(members(x) and members(y) and members(z), "witness not in the set")
    return x, y, z


def check_prefix_maxima(rep: dict, counts: list[int], q: int,
                        min_window: int) -> None:
    """The finite-horizon maxima of a density report, recomputed over
    integers: prefix means for the asymptotic value, windows of length at
    least min_window for the Banach value."""
    h = len(counts) - 1
    scale = q**h
    prefix = [0]
    for n in range(1, h + 1):
        prefix.append(prefix[-1] + counts[n] * q ** (h - n))

    def mean(a: int, b: int) -> Fraction:
        return Fraction(prefix[b] - prefix[a - 1], (b - a + 1) * scale)

    best_sum, best_len = prefix[1], 1
    for n in range(2, h + 1):
        if prefix[n] * best_len > best_sum * n:
            best_sum, best_len = prefix[n], n
    asym, ban = rep["asymptotic"], rep["banach"]
    expect(fr(asym["finite_max"]) == Fraction(best_sum, best_len * scale),
           "asymptotic finite_max is not the largest prefix mean")
    expect(mean(*asym["window"]) == fr(asym["finite_max"]),
           "asymptotic window mean")
    a, b = ban["window"]
    ban_max = fr(ban["finite_max"])
    expect(b - a + 1 >= min_window and mean(a, b) == ban_max,
           "Banach window mean")
    floor = max(prefix[m + min_window - 1] - prefix[m - 1]
                for m in range(1, h - min_window + 2))
    expect(ban_max >= Fraction(floor, min_window * scale),
           "Banach finite_max below a window of minimum length")
    long_prefix = max(mean(1, n) for n in range(min_window, h + 1))
    expect(ban_max >= long_prefix, "Banach finite_max below a prefix mean")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up writes the seed-derived inputs into the current directory."""

    def __init__(self, name: str, seed: int, scale: Scale):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.scale = scale

    def letters(self, q: int) -> str:
        return "".join(self.rng.sample(LETTERS, q))

    def jobs(self) -> list[Job]:
        raise NotImplementedError


class SearchWorkload(Workload):
    """Proved and budget-capped branch-and-bound searches."""

    def jobs(self) -> list[Job]:
        jobs = []
        for q, horizon, budget in self.scale.search:
            symbols = self.letters(q)
            name = f"search-{q}-{horizon}" + (f"-b{budget}" if budget else "")
            out = f"{name}.words"
            argv = ["search", "--alphabet", symbols, "--horizon", str(horizon),
                    "--out", out]
            if budget is not None:
                argv += ["--budget", str(budget)]
            expected = OPTIMA_Q2[horizon] if budget is None else None
            jobs.append(Job(name, argv,
                            self._checker(symbols, horizon, expected, out),
                            (out,)))
        return jobs

    @staticmethod
    def _checker(symbols: str, horizon: int, expected, out: str):
        q = len(symbols)

        def check(rc: int, stdout: str) -> None:
            expect(rc == 0, f"exit code {rc}")
            rep = json.loads(stdout)
            expect(rep["alphabet"] == symbols and rep["horizon"] == horizon,
                   "search echo")
            value = fr(rep["value"])
            if expected is not None:
                expect(rep["optimal"] is True and value == expected,
                       f"value {value}, expected the proved optimum {expected}")
            else:
                # The odd-length truncation is always feasible.
                expect(value >= Fraction((horizon + 1) // 2, horizon),
                       f"value {value} below the odd-length truncation")
            text = Path(out).read_text()
            got_symbols, got_h, words = parse_words(text)
            expect(got_symbols == symbols and got_h == horizon, "witness header")
            counts = layer_counts(words, horizon)
            expect(counts[1:] == rep["witness_layer_counts"],
                   "witness layer counts")
            mean = sum(Fraction(c, q**n) for n, c in enumerate(counts) if n)
            expect(mean / horizon == value, "value is not the witness's mean")
            _, _, parsed = read_word_list(text)
            expect(check_explicit(explicit_from_words(parsed, horizon)) is None,
                   "witness is not product-free")

        return check


@dataclass(frozen=True)
class DensityInput:
    file: str
    q: int
    count: Callable[[int], int | None]   # closed form where known
    limit: Fraction
    must_be_exact: bool


def _parity_dfa(symbols: str, masks: tuple[int, ...], accept) -> str:
    """Automaton tracking the parity of occurrences of each marked symbol
    group; mask bit i marks symbols[i].  accept maps the parity tuple to
    membership."""
    k = len(masks)
    states = list(product((0, 1), repeat=k))
    index = {s: i for i, s in enumerate(states)}
    lines = [f"alphabet: {symbols}", f"states: {len(states)}", "start: 0",
             "accept: " + " ".join(str(index[s]) for s in states if accept(s))]
    for s in states:
        for i, c in enumerate(symbols):
            t = tuple(p ^ ((m >> i) & 1) for p, m in zip(s, masks))
            lines.append(f"trans: {index[s]} {c} {index[t]}")
    return "\n".join(lines) + "\n"


class LimitsWorkload(Workload):
    """Exact density profiles and limits of small automata."""

    OPS = {
        "union": lambda a, b: a | b,
        "intersection": lambda a, b: a & b,
        "difference": lambda a, b: a & (1 - b),
        "symmetric-difference": lambda a, b: a ^ b,
    }

    def inputs(self) -> list[DensityInput]:
        s2, s3 = self.letters(2), self.letters(3)
        out = []

        # Odd occurrence of one of two symbols: d(n) = 1/2 for every n.
        mask = 1 << self.rng.randrange(2)
        Path("odd2.dfa").write_text(_parity_dfa(s2, (mask,), lambda p: p[0]))
        out.append(DensityInput("odd2.dfa", 2, lambda n: 2 ** (n - 1),
                                Fraction(1, 2), True))

        # Odd occurrence of two of three symbols: (3^n - (-1)^n) / 2.
        mask = 7 ^ (1 << self.rng.randrange(3))
        Path("odd3.dfa").write_text(_parity_dfa(s3, (mask,), lambda p: p[0]))
        out.append(DensityInput("odd3.dfa", 3,
                                lambda n: (3**n - (-1) ** n) // 2,
                                Fraction(1, 2), False))

        # The asymmetric Z = complement of X.Y; from length 2n on a word is
        # in X.Y iff its first and last n symbols both lie in W.
        k = Z_N
        rc, _, err = run_cli(["construct", "asymmetric", "--alphabet", s2,
                              "--n", str(k), "--eps", "1/10", "--out", "z"])
        expect(rc == 0, f"construct asymmetric failed: {err}")
        w = phi_floor(2**k)
        out.append(DensityInput(
            "z.z.dfa", 2,
            lambda n: 2**n - w * w * 2 ** (n - 2 * k) if n >= 2 * k else None,
            1 - Fraction(w * w, 4**k), False))

        # A boolean composition of two odd-occurrence sets over two symbols:
        # half of each layer lies in each parity class, so d(n) is fixed by
        # the parity of n and both limits are (accepted classes) / 4.
        m1, m2 = self.rng.sample((1, 2, 3), 2)
        op = self.OPS[self.rng.choice(sorted(self.OPS))]
        accept = lambda p: op(p[0], p[1])  # noqa: E731
        Path("comp.dfa").write_text(_parity_dfa(s2, (m1, m2), accept))
        # Class (a, b): parities of the two symbols; O_mask = parity of mask.
        classes = [(a, b) for a in (0, 1) for b in (0, 1)
                   if op((a & m1) ^ (b & (m1 >> 1)), (a & m2) ^ (b & (m2 >> 1)))]
        out.append(DensityInput(
            "comp.dfa", 2,
            lambda n: 2 ** (n - 1) * sum((a + b) % 2 == n % 2 for a, b in classes),
            Fraction(len(classes), 4), False))
        return out

    def jobs(self) -> list[Job]:
        inputs = self.inputs()
        low: dict[str, list[int]] = {}
        json_counts: dict[str, list[int]] = {}

        def low_counts(inp: DensityInput) -> list[int]:
            if inp.file not in low:
                h = 1
                while inp.q ** (h + 1) <= TRUNCATE_WORDS:
                    h += 1
                s = dfa_truncate(read_dfa(Path(inp.file).read_text()), h)
                low[inp.file] = [s.layer_count(n) for n in range(1, h + 1)]
            return low[inp.file]

        def check_counts(inp: DensityInput, rows) -> list[int]:
            counts = [0]
            for n, (got_n, count, total) in enumerate(rows, start=1):
                expect(got_n == n and total == inp.q**n, f"layer {n} header")
                known = inp.count(n)
                expect(known is None or count == known,
                       f"{inp.file}: layer {n} count {count}, expected {known}")
                counts.append(count)
            lows = low_counts(inp)
            expect(counts[1:len(lows) + 1] == lows[:len(counts) - 1],
                   f"{inp.file}: low layers disagree with dfa_truncate")
            return counts

        def json_check(inp: DensityInput, horizon: int):
            def check(rc: int, out: str) -> None:
                expect(rc == 0, f"exit code {rc}")
                rep = json.loads(out)
                expect(rep["horizon"] == horizon and rep["extendable"] is True,
                       "density echo")
                prof = rep["profile"]
                expect(len(prof) == horizon, "profile length")
                for row in prof:
                    expect(fr(row["density"]) == Fraction(row["count"], row["total"]),
                           "density is not count/total")
                counts = check_counts(
                    inp, [(r["n"], r["count"], r["total"]) for r in prof])
                json_counts[inp.file] = counts
                for kind in ("asymptotic", "banach"):
                    lim = rep[kind]
                    expect(lim["exact"] or not inp.must_be_exact,
                           f"{inp.file}: {kind} limit not exact")
                    expect(not lim["exact"] or fr(lim["value"]) == inp.limit,
                           f"{inp.file}: exact {kind} limit {lim['value']}, "
                           f"expected {inp.limit}")
                check_prefix_maxima(rep, counts, inp.q, rep["banach"]["min_window"])
            return check

        def csv_check(inp: DensityInput, horizon: int):
            def check(rc: int, out: str) -> None:
                expect(rc == 0, f"exit code {rc}")
                lines = out.splitlines()
                expect(lines[0] == "n,count,total,density_num,density_den"
                       and len(lines) == horizon + 1, "csv shape")
                rows = []
                for line in lines[1:]:
                    n, count, total, num, den = map(int, line.split(","))
                    expect(Fraction(num, den) == Fraction(count, total)
                           and Fraction(num, den).denominator == den,
                           f"layer {n} density is not count/total in lowest terms")
                    rows.append((n, count, total))
                counts = check_counts(inp, rows)
                earlier = json_counts.get(inp.file, [])
                expect(counts[:len(earlier)] == earlier[:len(counts)],
                       f"{inp.file}: csv and json profiles disagree")
            return check

        hj, hc = self.scale.json_horizon, self.scale.csv_horizon
        jobs = []
        for inp in inputs:
            stem = inp.file.split(".")[0]
            jobs.append(Job(f"json-{stem}", ["density", "--dfa", inp.file,
                                             "--format", "json",
                                             "--horizon", str(hj)],
                            json_check(inp, hj)))
        # No CSV job for odd2, whose profile is constant: with the O(H^2)
        # JSON jobs in the majority, job_p50_s falls inside their cluster
        # instead of between it and the cheap CSV jobs.
        for inp in inputs[1:]:
            stem = inp.file.split(".")[0]
            jobs.append(Job(f"csv-{stem}", ["density", "--dfa", inp.file,
                                            "--format", "csv",
                                            "--horizon", str(hc)],
                            csv_check(inp, hc)))
        return jobs


# verify-prop lengths on automata, at n = 5: equal work for every choice.
AUTOMATA_LENGTHS = ([1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4])
AUTOMATA_PROP_N = 5
EPS = ("1/10", "1/9", "1/8", "1/7", "1/6")


class AutomataWorkload(Workload):
    """Asymmetric triples: construction, DFA product checks, inequality."""

    def jobs(self) -> list[Job]:
        eps = self.rng.choice(EPS)
        lengths, n_prop = self.rng.choice(AUTOMATA_LENGTHS), AUTOMATA_PROP_N
        alphabets = {2: self.letters(2), 3: self.letters(3)}
        jobs = []
        for q, k in self.scale.triples:
            symbols = alphabets[q]
            t = f"t{q}-{k}"
            files = (f"{t}.w.words", f"{t}.x.dfa", f"{t}.y.dfa", f"{t}.z.dfa")
            jobs.append(Job(f"{t}-construct",
                            ["construct", "asymmetric", "--alphabet", symbols,
                             "--n", str(k), "--eps", eps, "--out", t],
                            self._construct_check(t, symbols, k), files))
            jobs.append(Job(f"{t}-check-w", ["check", "--words", files[0]],
                            self._w_check))
            for tag, f in zip("xyz", files[1:]):
                jobs.append(Job(f"{t}-check-{tag}", ["check", "--dfa", f],
                                self._dfa_check(f)))
            for tag, f in zip("xyz", files[1:]):
                jobs.append(Job(
                    f"{t}-verify-{tag}",
                    ["verify-prop", "--dfa", f, "--lengths",
                     ",".join(map(str, lengths)), "--n", str(n_prop)],
                    self._prop_check(f, q, lengths, n_prop)))
        return jobs

    @staticmethod
    def _construct_check(t: str, symbols: str, k: int):
        def check(rc: int, out: str) -> None:
            expect(rc == 0 and out == f"wrote {t}.w.words and {t}.{{x,y,z}}.dfa\n",
                   f"construct asymmetric: exit {rc}, output {out!r}")
            got, horizon, words = parse_words(Path(f"{t}.w.words").read_text())
            size = phi_floor(len(symbols) ** k)
            expect(got == symbols and horizon == k
                   and words == first_words(symbols, k, size),
                   "W is not the first floor(phi q^n) words of length n")
        return check

    @staticmethod
    def _w_check(rc: int, out: str) -> None:
        # W is a single layer, so every product is longer than its horizon.
        expect(rc == 0 and out == "product-free\n", f"check W: exit {rc}")

    @staticmethod
    def _dfa_check(f: str):
        def check(rc: int, out: str) -> None:
            # X.F is inside X, F.Y inside Y, and Z holds every word shorter
            # than 2n: none of the three is product-free.
            text = Path(f).read_text()
            x, y, z = check_witness_lines(rc, out, TextDfa(text).accepts)
            explicit = check_explicit(dfa_truncate(read_dfa(text), len(z)))
            expect(explicit is not None
                   and (explicit.x.text, explicit.y.text, explicit.z.text) == (x, y, z),
                   f"{f}: least explicit witness differs from {x}.{y}={z}")
        return check

    @staticmethod
    def _prop_check(f: str, q: int, lengths: list[int], n: int):
        def check(rc: int, out: str) -> None:
            members = TextDfa(Path(f).read_text()).members(n)
            check_verify_prop(rc, out, members, q, lengths, n, must_hold=False)
        return check


class ExplicitWorkload(Workload):
    """Greedy product-free fixtures as word lists, and every subcommand
    that reads them, plus perturbed copies that complete one product."""

    def jobs(self) -> list[Job]:
        symbols = self.letters(2)
        h = self.scale.max_len
        jobs = []
        for i in range(self.scale.fixtures):
            fx_seed = self.rng.randrange(10**6)
            lengths = sorted(self.rng.sample(range(h - 6, h - 1), 2))
            f = f"fx{i}"
            state: dict = {}
            jobs.append(Job(f"{f}-construct",
                            ["construct", "random", "--alphabet", symbols,
                             "--seed", str(fx_seed), "--max-len", str(h),
                             "--out", f"{f}.words"],
                            self._construct_check(f, symbols, h, fx_seed, state),
                            (f"{f}.words",)))
            words = ["--words", f"{f}.words"]
            jobs += [
                Job(f"{f}-check", ["check", *words], self._pf_check),
                Job(f"{f}-density", ["density", *words, "--format", "json"],
                    self._density_check(state)),
                Job(f"{f}-certify", ["certify", *words, "--min-window", "4"],
                    self._certify_check(state)),
                Job(f"{f}-phi", ["phi-levelset", *words], self._phi_check(state)),
                Job(f"{f}-verify", ["verify-prop", *words, "--lengths",
                                    ",".join(map(str, lengths)), "--n", str(h)],
                    lambda rc, out, st=state, ls=lengths: check_verify_prop(
                        rc, out, st["words"], 2, ls, h, must_hold=True)),
            ]
            for side in ("prefix", "suffix"):
                jobs.append(Job(f"{f}-perturbed-{side}",
                                ["check", "--words", f"{f}.{side}.words"],
                                self._perturbed_check(state, side)))
        return jobs

    @staticmethod
    def _construct_check(f: str, symbols: str, h: int, fx_seed: int, state: dict):
        def check(rc: int, out: str) -> None:
            expect(rc == 0 and out == "", f"construct random: exit {rc}")
            got, horizon, words = parse_words(Path(f"{f}.words").read_text())
            members = set(words)
            expect(got == symbols and horizon == h and len(members) == len(words)
                   and all(1 <= len(w) <= h and set(w) <= set(symbols)
                           for w in words), "fixture word list")
            expect(product_witness(members) is None, "fixture is not product-free")
            state.update(words=members, counts=layer_counts(members, h), h=h)
            # Add one factor of some member z whose other factor is in.
            rng = random.Random(fx_seed)
            order = sorted(members)
            rng.shuffle(order)
            for side in ("prefix", "suffix"):
                added = next(
                    (a for z in order for m in range(1, len(z))
                     for a, b in [(z[:m], z[m:]) if side == "prefix" else (z[m:], z[:m])]
                     if b in members and a not in members), None)
                expect(added is not None, f"no {side} factor to add")
                state[side] = added
                Path(f"{f}.{side}.words").write_text(
                    "\n".join([f"alphabet: {symbols}", f"horizon: {h}",
                               *sorted(members | {added})]) + "\n")
        return check

    @staticmethod
    def _pf_check(rc: int, out: str) -> None:
        expect(rc == 0 and out == "product-free\n", f"check: exit {rc} {out!r}")

    @staticmethod
    def _density_check(state: dict):
        def check(rc: int, out: str) -> None:
            expect(rc == 0, f"exit code {rc}")
            rep = json.loads(out)
            counts = state["counts"]
            expect(rep["extendable"] is False and rep["horizon"] == state["h"],
                   "density echo")
            expect([r["count"] for r in rep["profile"]] == counts[1:],
                   "profile counts differ from the word list")
            expect(not rep["asymptotic"]["exact"] and not rep["banach"]["exact"],
                   "explicit truncation reported an exact limit")
            check_prefix_maxima(rep, counts, 2, rep["banach"]["min_window"])
        return check

    @staticmethod
    def _certify_check(state: dict):
        def check(rc: int, out: str) -> None:
            rep = json.loads(out)
            expect(rep["all_hold"] is True and rc == 0, "certify: a bound fails")
            lengths = rep["lengths"]
            expect(lengths == sorted(set(lengths)), "lengths not increasing")
            terms, _, _ = chained(state["words"], 2, lengths, state["h"])
            expect([fr(t) for t in rep["terms"]] == terms, "certify terms")
            cum = [sum(terms[:i + 1]) for i in range(len(terms))]
            expect([fr(c) for c in rep["cumulative"]] == cum, "cumulative sums")
            counts, k = state["counts"], len(lengths)
            for cert in rep["window_certificates"]:
                a, b = cert["window"]
                mean = sum(Fraction(counts[n], 2**n) for n in range(a, b + 1)) / (b - a + 1)
                bound = (Fraction(2**k, 2 ** (k + 1) - 1)
                         + Fraction(2 * (lengths[-1] + 1), b - a + 1))
                expect(fr(cert["mean"]) == mean and fr(cert["bound"]) == bound
                       and cert["holds"] is (mean <= bound),
                       f"certificate for window [{a}, {b}]")
        return check

    @staticmethod
    def _phi_check(state: dict):
        def check(rc: int, out: str) -> None:
            rep = json.loads(out)
            counts, h = state["counts"], state["h"]
            # d > phi  <=>  (2d + 1)^2 > 5
            level = [n for n in range(1, h + 1)
                     if (2 * counts[n] + 2**n) ** 2 > 5 * 4**n]
            expect(rep["level_set"] == level, "phi level set")
            expect(not any(a + b in level for a in level for b in level),
                   "level set of a product-free set is not sum-free")
            expect(rep["sum_free"] is True and rep["violation"] is None and rc == 0,
                   "phi-levelset verdict")
        return check

    @staticmethod
    def _perturbed_check(state: dict, side: str):
        def check(rc: int, out: str) -> None:
            members = state["words"] | {state[side]}
            triple = check_witness_lines(rc, out, members.__contains__)
            expect(state[side] in triple, "witness misses the added word")
        return check


WORKLOADS = {
    "search": SearchWorkload,
    "limits": LimitsWorkload,
    "automata": AutomataWorkload,
    "explicit": ExplicitWorkload,
}
