"""The exact workload: a seeded stream of exact queries, one at a time.

Each query runs either through the public functions or through
liemoments.cli.main in the same process, so the package's in-process
caches start cold and fill as the stream goes.  A quarter of the stream
repeats an earlier query verbatim, which is what a cache can exploit.

Query mix per block of 20: 15 new queries with fixed counts per kind and
5 repeats whose kinds are dealt from the same mix, in seeded order, so the
mix is the same for every seed.  Five
of the new queries go through the CLI, whose argument parser alone costs
more than most API queries; with a fixed third of the stream on that path
the median stays inside the API latencies and the 90th percentile inside
the CLI ones, instead of on the gap between them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from statistics import mean

import liemoments as lm
import liemoments.cli
from liemoments import Family, FourierData, GroupSpec, Partition

KIND_COUNTS = {
    "expect-trace": 3,
    "expect-twisted": 3,
    "branch": 1,
    "ratio": 1,
    "asymptotics": 1,
    "lr": 2,
    "g": 2,
    "phi-series": 1,
    "char-table": 1,
}
REPEATS_PER_BLOCK = 5
CLI_PER_BLOCK = 5
FAMILIES = ("sp", "so-even", "so-odd")


@dataclass(frozen=True)
class Query:
    kind: str
    via: str  # "api" or "cli"
    args: tuple


def _parts(text: str) -> Partition:
    return Partition.parse(text)


def _random_partition(rng: random.Random, weight: int) -> str:
    parts, rest = [], weight
    while rest:
        p = rng.randint(1, rest)
        parts.append(p)
        rest -= p
    return ",".join(map(str, sorted(parts, reverse=True))) or "0"


def _grow(rng: random.Random, lam: str, boxes: int) -> str:
    """Add boxes one at a time at random addable corners."""
    rows = [int(p) for p in lam.split(",")] if lam != "0" else []
    for _ in range(boxes):
        corners = [i for i in range(len(rows) + 1) if i == 0 or rows[i - 1] > (rows[i] if i < len(rows) else 0)]
        i = rng.choice(corners)
        if i == len(rows):
            rows.append(1)
        else:
            rows[i] += 1
    return ",".join(map(str, rows))


def _coeffs(rng: random.Random, support, exact: bool) -> str:
    terms = []
    for i in support:
        if exact:
            terms.append(f"c{i}={rng.choice([-3, -2, -1, 1, 2, 3])}/{rng.randint(2, 7)}")
        else:
            terms.append(f"c{i}={rng.uniform(-0.4, 0.4):.2f}")
    return ",".join(terms)


class Deck:
    """Draws without replacement from `cards` and reshuffles when they run
    out, so that every card keeps its share of any long stretch of draws."""

    def __init__(self, rng: random.Random, cards):
        self.rng = rng
        self.cards = list(cards)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = self.cards[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def new_query(rng: random.Random, decks: dict, kind: str, via: str) -> Query:
    """Arguments are random, except that the sizes that set a query's cost
    by orders of magnitude (k of g and of char-table) come from decks."""
    fam = rng.choice(FAMILIES)
    if kind == "expect-trace":
        if rng.random() < 0.2:  # Sp below the stable range: involution count
            k = rng.choice((2, 4, 6, 8))
            args = ("sp", str(rng.randint(1, k - 1)), ",".join(["1"] * k))
        else:
            w = rng.randint(1, 8)
            rank = "stable" if rng.random() < 0.5 else str(rng.randint(w, w + 3))
            args = (fam, rank, _random_partition(rng, w))
    elif kind == "expect-twisted":
        w = rng.randint(1, 8)
        rank = "stable" if rng.random() < 0.5 else str(rng.randint(w, w + 3))
        args = (fam, rank, _random_partition(rng, rng.randint(0, w)), _random_partition(rng, w))
    elif kind == "branch":
        args = (rng.choice(("sp", "so")), _random_partition(rng, rng.randint(1, 8)))
    elif kind == "ratio":
        args = (_random_partition(rng, rng.randint(0, 6)), _coeffs(rng, (1, 2, 3), True))
    elif kind == "asymptotics":
        gamma = _random_partition(rng, rng.randint(1, 4)) if rng.random() < 0.5 else None
        args = (fam, _coeffs(rng, (1, 2), False), gamma)
    elif kind == "lr":
        mu = _random_partition(rng, rng.randint(0, 5))
        b = rng.randint(1, 5)
        args = (_grow(rng, mu, b), mu, _random_partition(rng, b))
    elif kind == "g":
        method, k = decks["g"].draw()
        if method == "rains":
            args = (",".join(["1"] * k), f"rains:{rng.randint(1, k + 1)}")
        else:
            args = (_random_partition(rng, k), method)
    elif kind == "phi-series":
        n = rng.randint(2, 6)
        j = rng.randint(0, min(n, 3))
        args = (fam, n, _random_partition(rng, j), _coeffs(rng, (1, 2), True), rng.randint(j, n))
    elif kind == "char-table":
        args = (decks["char-table"].draw(),)
    else:
        raise ValueError(kind)
    return Query(kind, via, args)


def cost_class(q: Query):
    """The deck card a query was made from; None for kinds without a deck."""
    if q.kind == "g":
        return q.args[1].split(":")[0], _parts(q.args[0]).weight
    if q.kind == "char-table":
        return q.args[0]
    return None


def query_stream(seed: int):
    """Endless seeded stream of (query, is_repeat).  A repeat is a random
    earlier query whose kind, and for g and char-table whose size, are dealt
    from decks with the new queries' mix, so repeats cost alike on every seed."""
    rng = random.Random(seed)
    g_cards = [(m, k) for m in ("closed", "closed", "brute", "brute", "rains") for k in range(2, 13, 2)]
    decks = {"g": Deck(rng, g_cards), "char-table": Deck(rng, range(1, 15))}
    repeat_decks = {"g": Deck(rng, g_cards), "char-table": Deck(rng, range(1, 15))}
    repeat_kinds = Deck(rng, [k for k, c in KIND_COUNTS.items() for _ in range(c)])
    history: dict[tuple, list[Query]] = {}
    while True:
        kinds = [k for k, c in KIND_COUNTS.items() for _ in range(c)]
        has_command = [i for i, k in enumerate(kinds) if k != "phi-series"]
        on_cli = set(rng.sample(has_command, CLI_PER_BLOCK))
        slots = [(k, "cli" if i in on_cli else "api") for i, k in enumerate(kinds)]
        slots += [None] * REPEATS_PER_BLOCK
        rng.shuffle(slots)
        for slot in slots:
            if slot is None:
                kind = repeat_kinds.draw()
                size = repeat_decks[kind].draw() if kind in repeat_decks else None
                earlier = history.get((kind, size))
                if earlier:
                    yield rng.choice(earlier), True
                    continue
                slot = (kind, "api")
            q = new_query(rng, decks, *slot)
            history.setdefault((q.kind, cost_class(q)), []).append(q)
            yield q, False


# ---------------------------------------------------------------------------
# execution


def _group(fam: str, rank) -> GroupSpec:
    return GroupSpec(Family.parse(fam), None if rank == "stable" else int(rank))


def _argv(q: Query) -> list[str]:
    a = q.args
    if q.kind == "expect-trace":
        return ["expect-trace", "--group", a[0], "--rank", a[1], "--lambda", a[2]]
    if q.kind == "expect-twisted":
        return ["expect-twisted", "--group", a[0], "--rank", a[1], "--gamma", a[2], "--lambda", a[3], "--verify"]
    if q.kind == "branch":
        return ["branch", "--family", a[0], "--lambda", a[1]]
    if q.kind == "ratio":
        return ["ratio", "--gamma", a[0], "--coeffs", a[1], "--verify"]
    if q.kind == "asymptotics":
        gamma = ["--gamma", a[2]] if a[2] is not None else []
        return ["asymptotics", "--family", a[0], "--coeffs", a[1], *gamma]
    if q.kind == "lr":
        return ["lr", "--lambda", a[0], "--mu", a[1], "--nu", a[2]]
    if q.kind == "g":
        return ["g", "--lambda", a[0], "--method", a[1]]
    if q.kind == "char-table":
        return ["char-table", "--k", str(a[0])]
    raise ValueError(f"{q.kind} has no command")


def _api(q: Query):
    # Through module attributes, so that a traced run sees these calls.
    a = q.args
    if q.kind == "expect-trace":
        return lm.expect_trace_product(_group(a[0], a[1]), _parts(a[2]))
    if q.kind == "expect-twisted":
        return lm.expect_twisted(_group(a[0], a[1]), _parts(a[2]), _parts(a[3]), verify=True)
    if q.kind == "branch":
        fam = Family.SP if a[0] == "sp" else Family.SO_EVEN
        return lm.branching_decomposition(_parts(a[1]), fam).coeffs
    if q.kind == "ratio":
        return lm.SchurSpecialization.compute(_parts(a[0]), FourierData.parse(a[1]), verify=True).value
    if q.kind == "asymptotics":
        fam, f = Family.parse(a[0]), FourierData.parse(a[1])
        return lm.johansson_limit(fam, f) if a[2] is None else lm.twisted_asymptotic(fam, _parts(a[2]), f)
    if q.kind == "lr":
        return lm.lr_coefficient(_parts(a[0]), _parts(a[1]), _parts(a[2]))
    if q.kind == "g":
        lam, method = _parts(a[0]), a[1]
        if method == "closed":
            return lm.g_closed(lam)
        if method == "brute":
            return lm.g_bruteforce(lam)
        return lm.fpf_involutions_lds(lam.weight, int(method.split(":")[1]))
    if q.kind == "phi-series":
        G = GroupSpec(Family.parse(a[0]), a[1])
        return lm.expect_phi_series(G, _parts(a[2]), FourierData.parse(a[3]), a[4])[0]
    if q.kind == "char-table":
        return lm.character_table(a[0])
    raise ValueError(q.kind)


class QueryFailed(Exception):
    pass


def _cli(q: Query):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = liemoments.cli.main(_argv(q))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    if code != 0:
        raise QueryFailed(f"exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def execute(q: Query):
    return _api(q) if q.via == "api" else _cli(q)


def _exact_value(q: Query, result):
    """The query's exact value as a number, from either path."""
    if q.via == "api":
        return result
    pair = result["exact"]
    return Fraction(int(pair["numerator"]), int(pair["denominator"]))


def _dimensions(q: Query, result) -> list[int]:
    if q.via == "api":
        return [row[-1] for row in result.values]
    return [int(row[-1]) for row in result["table"]["values"]]


def check(q: Query, result) -> str | None:
    """Compare against the package's independent route; None when it agrees.
    expect-twisted and ratio carry their check in --verify / verify=True."""
    if q.kind == "g":
        lam, method = _parts(q.args[0]), q.args[1]
        value = _exact_value(q, result)
        if method in ("closed", "brute"):
            other = lm.g_bruteforce(lam) if method == "closed" else lm.g_closed(lam)
            if value != other:
                return f"g {method} gives {value}, the other route {other}"
        else:
            k, bound = lam.weight, int(method.split(":")[1])
            full = math.prod(range(k - 1, 0, -2))
            if bound >= k and value != full:
                return f"rains:{bound} count {value} != (k-1)!! = {full}"
    if q.kind == "char-table":
        k = q.args[0]
        total = sum(d * d for d in _dimensions(q, result))
        if total != math.factorial(k):
            return f"sum of squared dimensions {total} != {k}!"
    return None


class ExactWorkload:
    def __init__(self, seed: int, tracer=None):
        self.stream = query_stream(seed)
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.repeat: list[bool] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, seconds: float, ops: int | None = None) -> None:
        """`ops` queries if given, otherwise queries until `seconds` pass."""
        deadline = time.perf_counter() + seconds
        while self.attempted < ops if ops is not None else time.perf_counter() < deadline:
            q, is_repeat = next(self.stream)
            tracer = self.tracer
            if tracer is not None:
                tracer.run, tracer.tag = self.attempted, q.kind
                tracer.parent = tracer.open("exact.query")
            error = None
            t0 = time.perf_counter()
            try:
                result = execute(q)
            except Exception as exc:  # counted as a failed query
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(tracer.parent)
                tracer.parent = None
            if error is None:
                try:
                    error = check(q, result)
                except (KeyError, TypeError, ValueError) as exc:
                    error = f"malformed result: {exc!r}"
            self.attempted += 1
            self.latencies_ms.append(1e3 * dt)
            self.repeat.append(is_repeat)
            if error is not None:
                self.failures.append(f"{q.kind} {q.via} {q.args}: {error}")

    @property
    def ops_done(self) -> int:
        return self.attempted

    def metrics(self) -> dict:
        """Means rather than medians for first and repeat: the latencies span
        three orders of magnitude across kinds, so a median moves with small
        changes in the mix while a mean averages them out."""
        first = [t for t, r in zip(self.latencies_ms, self.repeat) if not r]
        again = [t for t, r in zip(self.latencies_ms, self.repeat) if r]
        rate = 1e3 * len(self.latencies_ms) / sum(self.latencies_ms)
        return {
            "work_per_s": rate,
            "first_ms": mean(first),
            "repeat_ms": mean(again),
            "op_latencies_ms": self.latencies_ms,
            "aliases": {
                "exact_queries_per_s": (rate, "1/s"),
                "exact.repeat_share": (len(again) / len(self.repeat), "share"),
            },
        }
