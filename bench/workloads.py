"""Seeded inputs, timed operations and answer checks for each workload.

A workload owns a fixed list of zero-argument operations (one pass), a
``check`` that turns a pass's results into one outcome per operation, and a
``render`` that turns them into the bytes the digest covers.  Inputs come
only from the seed; expected answers come from ``oracle`` and from how each
input was generated.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import oracle

OK = "ok"
# An input that must exit 2 under the CLI contract but exits 1 in the current
# code (a slope past the int-string digit limit, deep JSON).  Counted apart
# from failures, so a fix shows as a gain in ok_share.
DEFECT = "known_defect"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DATUM_COMMANDS = (
    "check-balanced", "check-symmetric", "check-star", "verdict",
    "restrict", "transfer", "hypotheses",
)
UNIVERSE = sorted({Fraction(a, b) for b in range(1, 13) for a in range(b + 1)})
LEVEL = {"simple": "simple", "hyper": "hypersymmetric", "none": "none"}


# -- generated slope data --------------------------------------------------------------


@dataclass
class Datum:
    """A generated slope datum and the facts known from how it was built."""

    obj: dict
    level: str  # simple | hyper | none
    kinds: list  # base place kinds
    star: bool  # every split pair has disjoint slope sets
    polys: dict  # upper name -> {Fraction: mult}

    @property
    def cm(self) -> bool:
        return self.obj["cm"]


def _polygon(rng, slopes, mults) -> list:
    parts = [[oracle.slope_text(s), m] for s, m in zip(slopes, mults)]
    rng.shuffle(parts)
    return parts


def gen_datum(rng: random.Random, level: str, tower: str, zeta: int = 0) -> Datum:
    """``tower`` is split | inert | mixed | degenerate; ``zeta`` > 0 makes every polygon (1/2)^zeta."""
    n_base = rng.randint(2 if tower == "mixed" else 1, 3)
    if tower == "mixed":
        kinds = ["split", "inert"] + [rng.choice(["split", "inert"]) for _ in range(n_base - 2)]
        rng.shuffle(kinds)
    else:
        kinds = ["split" if tower == "split" else "inert"] * n_base
    cm = tower != "degenerate"
    uppers = []
    for i, kind in enumerate(kinds):
        base = f"v{i}"
        if not cm:
            uppers.append([base])
        else:
            uppers.append([f"u{i}", f"u{i}s"] if kind == "split" else [f"u{i}"])
    names = [u for group in uppers for u in group]
    if level == "none" and len(names) == 1:
        level = "simple"

    n = 1 if zeta else rng.randint(2 if level == "hyper" else 1, 4)
    if zeta:
        mults = [zeta]
    elif level == "hyper":
        mults = rng.sample(range(1, 6), 2) + [rng.randint(1, 5) for _ in range(n - 2)]
    else:
        mults = [rng.randint(1, 4)] * n
    odd = rng.randrange(len(names)) if level == "none" else -1

    star = True
    polys: dict = {}
    json_polys: dict = {}
    for group in uppers:
        pair_overlap = len(group) == 2 and (zeta or rng.random() < 0.4)
        taken: list = []
        for u in group:
            place_mults = list(mults)
            rng.shuffle(place_mults)
            count = n
            if names.index(u) == odd:
                if rng.random() < 0.5:
                    count = n + 1
                    place_mults.append(rng.randint(1, 5))
                else:
                    place_mults[0] = place_mults[0] % 5 + 1
            if zeta:
                slopes = [oracle.HALF]
            elif taken and pair_overlap:
                slopes = [rng.choice(taken)] + rng.sample([s for s in UNIVERSE if s not in taken], count - 1)
            elif taken:
                slopes = rng.sample([s for s in UNIVERSE if s not in taken], count)
            else:
                slopes = rng.sample(UNIVERSE, count)
            taken = slopes
            polys[u] = dict(zip(slopes, place_mults))
            json_polys[u] = _polygon(rng, slopes, place_mults)
        if pair_overlap:
            star = False
    obj = {
        "cm": cm,
        "places": [
            {"name": f"v{i}", "kind": kind,
             "above": [{"name": u, "polygon": json_polys[u]} for u in group]}
            for i, (kind, group) in enumerate(zip(kinds, uppers))
        ],
    }
    return Datum(obj, level, kinds, star, polys)


def gen_signature(rng: random.Random, big: bool = False) -> dict:
    """Small: d <= 12.  Big: d in the thousands with a fixed shape (two orbits of
    four values), so every big signature costs about the same at the seed."""
    d = rng.randint(2000, 2100) if big else rng.randint(1, 12)
    orbits = 2 if big else rng.randint(1, 3)
    return {"d": d, "orbits": [
        {"name": f"o{i}", "f": [rng.randint(0, d) for _ in range(4 if big else rng.randint(1, 6))]}
        for i in range(orbits)
    ]}


def gen_weil(rng: random.Random) -> dict:
    return {"h": rng.randint(1, 3), "pairs": [
        {"w": f"w{i}", "wbar": f"w{i}b", "slope": oracle.slope_text(rng.choice(UNIVERSE))}
        for i in range(rng.randint(1, 3))
    ]}


# -- requests and their expected answers ---------------------------------------------------


@dataclass
class Request:
    """One CLI invocation with the check its output must pass.

    ``expect`` is OK (exit 0, checked by ``check`` on the JSON result or by
    ``text`` on the text rendering), "reject" (exit 2 with a one-line
    diagnostic), or DEFECT (exit 2 by contract, exit 1 at the seed).
    """

    argv: list
    stdin: bytes = b""
    expect: str = OK
    check: Callable[[object], list] | None = None
    text: str | None = None

    def outcome(self, code: int, out: bytes) -> str:
        if self.expect != OK:
            if code == 2 and out.startswith(b"error: ") and out.count(b"\n") == 1 and out.endswith(b"\n"):
                return OK
            if self.expect == DEFECT and code == 1 and out.startswith(b"internal error: "):
                return DEFECT
            return f"{self.argv[0]}: expected exit 2, got {code}: {out[:120]!r}"
        if code != 0:
            return f"{self.argv[0]}: exit {code}: {out[:120]!r}"
        if self.text is not None:
            return OK if out.decode() == self.text else f"{self.argv[0]}: text {out[:120]!r}"
        try:
            envelope = json.loads(out)
        except ValueError:
            return f"{self.argv[0]}: output is not JSON"
        problems = []
        if envelope.get("command") != self.argv[0]:
            problems.append("command echo")
        if envelope.get("input_digest") != hashlib.sha256(self.stdin).hexdigest():
            problems.append("input digest")
        problems += self.check(envelope.get("result"))
        return OK if not problems else f"{self.argv[0]}: {'; '.join(map(str, problems))[:300]}"


def _expect_equal(want):
    return lambda got: [] if got == want else [f"{got!r} != {want!r}"]


def _verdict_check(datum: Datum):
    def check(result) -> list:
        if result.get("level") != LEVEL[datum.level]:
            return [f"level {result.get('level')}, generated {datum.level}"]
        comps = result.get("components", [])
        if datum.level == "none":
            return [] if comps == [] else ["components for level none"]
        if len(comps) != len(next(iter(datum.polys.values()))):
            return [f"{len(comps)} components for {len(next(iter(datum.polys.values())))} slopes"]
        sums: dict = {u: {} for u in datum.polys}
        for comp in comps:
            if comp["cm"] != datum.cm or [(p["name"], p["kind"]) for p in comp["places"]] != [
                (p["name"], p["kind"]) for p in datum.obj["places"]
            ]:
                return ["component tower differs from input"]
            uppers = [u for p in comp["places"] for u in p["above"]]
            if any(len(u["polygon"]) != 1 for u in uppers) or len({u["polygon"][0][1] for u in uppers}) != 1:
                return ["component not balanced"]
            for u in uppers:
                sums[u["name"]] = oracle.add_polys(sums[u["name"]], oracle.poly_from_json(u["polygon"]))
        return [] if sums == datum.polys else ["components do not sum to the input"]
    return check


def _restricted(datum: Datum) -> dict:
    places = []
    for place in datum.obj["places"]:
        above = [datum.polys[u["name"]] for u in place["above"]]
        if place["kind"] == "split":
            poly = oracle.add_polys(*above)
        else:
            poly = {s: 2 * m for s, m in above[0].items()}
        name = place["name"]
        places.append({"name": name, "kind": "inert",
                       "above": [{"name": name, "polygon": oracle.poly_json(poly)}]})
    return {"cm": False, "places": places}


def datum_request(rng: random.Random, cmd: str, datum: Datum, brauer: int = 0) -> Request:
    argv = [cmd] + (["--brauer", str(brauer)] if brauer else [])
    stdin = json.dumps(datum.obj).encode()
    needs_cm = cmd in ("check-star", "restrict", "transfer", "hypotheses")
    if (needs_cm and not datum.cm) or (cmd == "transfer" and datum.level == "none"):
        return Request(argv, stdin, expect="reject")
    kinds = set(datum.kinds)
    branch = ("inert" if kinds == {"inert"} else
              "split_with_star" if kinds == {"split"} and datum.star else "fails")
    if cmd == "check-balanced":
        result = {"balanced": datum.level == "simple"}
        if brauer:
            result["zeta_b"] = all(p == {oracle.HALF: brauer} for p in datum.polys.values())
    elif cmd == "check-symmetric":
        result = {"symmetric": datum.level != "none"}
    elif cmd == "check-star":
        result = {"condition_star": datum.star}
    elif cmd == "transfer":
        result = {"transfer": "unknown" if branch == "fails" else "transfers"}
    elif cmd == "hypotheses":
        hyp = datum.level != "none"
        result = {"hypersymmetric": hyp, "branch": branch, "satisfied": hyp and branch != "fails"}
    elif cmd == "verdict":
        return Request(argv, stdin, check=_verdict_check(datum))
    else:
        return Request(argv, stdin, check=_expect_equal(_restricted(datum)))
    if rng.random() < 0.2:
        text = "".join(
            f"{key}: {str(value).lower() if isinstance(value, bool) else value}\n"
            for key, value in result.items()
        )
        return Request(argv + ["--format", "text"], stdin, text=text)
    return Request(argv, stdin, check=_expect_equal(result))


def muord_request(rng: random.Random, big: bool = False) -> Request:
    sig = gen_signature(rng, big)
    want = {"polygons": [
        {"name": o["name"], "polygon": oracle.poly_json(oracle.mu_ordinary(sig["d"], o["f"]))}
        for o in sig["orbits"]
    ]}
    return Request(["muord"], json.dumps(sig).encode(), check=_expect_equal(want))


def weil_request(rng: random.Random) -> Request:
    obj = gen_weil(rng)
    return Request(["weil"], json.dumps(obj).encode(),
                   check=lambda result: oracle.weil_problems(obj["h"], obj["pairs"], result))


def bw_request(rng: random.Random) -> Request:
    n = rng.randint(1, 20)
    r = rng.randint(0, n // 2)
    scaling = rng.choice(["literal", "times_r"])
    want = {"polygon": oracle.poly_json(oracle.bueltel_wedhorn(n, r, scaling))}
    argv = ["bw", "--n", str(n), "--r", str(r), "--scaling", scaling]
    return Request(argv, check=_expect_equal(want))


def poset_request(g: int) -> Request:
    def check(result) -> list:
        nodes = [oracle.poly_from_json(node) for node in result["nodes"]]
        return oracle.poset_problems(g, nodes, result["cover_edges"],
                                     result["basic_index"], result["ordinary_index"])
    return Request(["poset", "--g", str(g)], check=check)


def _any_datum(rng: random.Random) -> Datum:
    return gen_datum(rng, rng.choice(["simple", "hyper", "none"]),
                     rng.choice(["split", "inert", "mixed"]))


def _mutate_polygon_entry(rng, obj, value_at):
    """Replace one [slope, mult] field of one upper polygon."""
    upper = rng.choice([u for p in obj["places"] for u in p["above"]])
    entry = rng.choice(upper["polygon"])
    index, value = value_at
    entry[index] = value


def rejected_request(rng: random.Random, kind: str) -> Request:
    """Inputs the CLI must refuse with exit 2: the corpus/malformed kinds and variants."""
    cmd = rng.choice(DATUM_COMMANDS)
    obj = _any_datum(rng).obj
    stdin = None
    if kind == "duplicate-names":
        obj["places"].append(json.loads(json.dumps(obj["places"][0])))
        for i, upper in enumerate(obj["places"][-1]["above"]):
            upper["name"] = f"dup{i}"
    elif kind == "not-json":
        text = json.dumps(obj)
        stdin = text[: rng.randrange(1, len(text) - 1)].encode()
    elif kind == "slope-out-of-range":
        b = rng.randint(1, 9)
        _mutate_polygon_entry(rng, obj, (0, f"{b + rng.randint(1, 5)}/{b}"))
    elif kind == "unknown-key":
        target = rng.choice([obj, obj["places"][0], obj["places"][0]["above"][0]])
        target["ramified"] = False
    elif kind == "zero-multiplicity":
        _mutate_polygon_entry(rng, obj, (1, rng.choice([0, -1, -3])))
    elif kind == "bad-slope-text":
        _mutate_polygon_entry(rng, obj, (0, rng.choice(["0.5", "1/0", "-1/3", "01/2", " 1/2", "x"])))
    elif kind == "bad-multiplicity-type":
        _mutate_polygon_entry(rng, obj, (1, rng.choice(["2", True, 1.5, None])))
    elif kind == "missing-key":
        del obj[rng.choice(["cm", "places"])]
    elif kind == "bad-kind":
        obj["places"][0]["kind"] = "ramified"
    elif kind == "not-utf8":
        stdin = b"\xff\xfe" + json.dumps(obj).encode()
    elif kind == "muord-range":
        sig = gen_signature(rng)
        sig["orbits"][0]["f"][0] = sig["d"] + rng.randint(1, 3)
        return Request(["muord"], json.dumps(sig).encode(), expect="reject")
    elif kind == "weil-duplicate":
        weil = gen_weil(rng)
        weil["pairs"].append(dict(weil["pairs"][0]))
        return Request(["weil"], json.dumps(weil).encode(), expect="reject")
    elif kind == "bw-range":
        n = rng.randint(1, 10)
        return Request(["bw", "--n", str(n), "--r", str(n // 2 + rng.randint(1, 3))], expect="reject")
    elif kind == "poset-g":
        return Request(["poset", "--g", rng.choice(["-1", "-7", "1.5", "two"])], expect="reject")
    elif kind == "bad-flag":
        argv = rng.choice([[cmd, "--format", "xml"], ["check-balanced", "--brauer", "0"],
                           [cmd, "--bogus"], ["frobnicate"]])
        return Request(argv, json.dumps(obj).encode(), expect="reject")
    else:
        raise ValueError(kind)
    return Request([cmd], stdin if stdin is not None else json.dumps(obj).encode(), expect="reject")


REJECT_KINDS = (
    "duplicate-names", "not-json", "slope-out-of-range", "unknown-key", "zero-multiplicity",
    "bad-slope-text", "bad-multiplicity-type", "missing-key", "bad-kind", "not-utf8",
    "muord-range", "weil-duplicate", "bw-range", "poset-g", "bad-flag",
)


def defect_request(rng: random.Random, kind: str) -> Request:
    """Inputs that exit 1 at the seed: a slope past the int-string digit limit, deep JSON."""
    cmd = rng.choice(DATUM_COMMANDS)
    if kind == "huge-slope":
        obj = _any_datum(rng).obj
        _mutate_polygon_entry(rng, obj, (0, "1/" + "7" * rng.randint(4400, 5000)))
        return Request([cmd], json.dumps(obj).encode(), expect=DEFECT)
    return Request([cmd], b"[" * rng.randint(20000, 100000), expect=DEFECT)


def datum_requests(rng: random.Random, count: int) -> list:
    out = []
    for i in range(count):
        cmd = DATUM_COMMANDS[i % len(DATUM_COMMANDS)]
        tower = rng.choice(["split", "split", "inert", "mixed", "degenerate"])
        brauer = 0
        zeta = 0
        if cmd == "check-balanced" and rng.random() < 0.4:
            brauer = rng.randint(1, 4)
            zeta = brauer if rng.random() < 0.5 else rng.randint(1, 4)
        level = "simple" if zeta else rng.choice(["simple", "hyper", "none"])
        out.append(datum_request(rng, cmd, gen_datum(rng, level, tower, zeta), brauer))
    return out


def request_stream(rng: random.Random, mix: dict) -> list:
    """A shuffled pass with fixed counts per request class, so every seed has one shape."""
    reqs = datum_requests(rng, mix["datum"])
    reqs += [muord_request(rng) for _ in range(mix["muord"])]
    reqs += [muord_request(rng, big=True) for _ in range(mix["muord_big"])]
    reqs += [weil_request(rng) for _ in range(mix["weil"])]
    reqs += [bw_request(rng) for _ in range(mix["bw"])]
    reqs += [poset_request(g) for g in mix["poset_g"]]
    first = rng.randrange(len(REJECT_KINDS))
    reqs += [rejected_request(rng, REJECT_KINDS[(first + i) % len(REJECT_KINDS)])
             for i in range(mix["rejected"])]
    reqs += [defect_request(rng, ("huge-slope", "deep-json")[i % 2]) for i in range(mix["defect"])]
    rng.shuffle(reqs)
    return reqs


# -- workloads -----------------------------------------------------------------------------


class Workload:
    """Base: subclasses set ``name``, ``ops``, ``warm_ops``, ``check`` and ``render``."""

    def warm_up(self) -> None:
        for op in self.warm_ops:
            op()

    @contextlib.contextmanager
    def tracing(self, tracer):
        """Record spans for every call into the library while the block runs."""
        tracer.install(self.modules)
        try:
            yield
        finally:
            tracer.uninstall()


# Ten small requests: the cold-cli pass, and the request-mix warm-up.
SMALL_MIX = {"datum": 5, "muord": 1, "muord_big": 0, "weil": 1, "bw": 1,
             "poset_g": [3], "rejected": 1, "defect": 0}


class RequestMix(Workload):
    name = "request-mix"
    # p99 falls inside the group of d-in-the-thousands muord requests (2% of a pass).
    tail_percentile = 99
    MIX = {"datum": 252, "muord": 36, "muord_big": 8, "weil": 20, "bw": 20,
           "poset_g": [1, 2, 3, 4, 5] * 2, "rejected": 42, "defect": 8}

    def __init__(self, ns, seed: int):
        self.modules = ns.modules
        self.requests = request_stream(random.Random(f"{self.name}:{seed}"), self.MIX)
        cli = ns.cli  # looked up per call, so installed span wrappers are seen
        self.ops = [(lambda r=r: cli.execute(r.argv, r.stdin)) for r in self.requests]
        # Warm up on small requests only, so set-up cost does not depend on where
        # the seed puts the expensive ones.
        warm = request_stream(random.Random(f"{self.name}-warm-up:{seed}"), SMALL_MIX)
        self.warm_ops = [(lambda r=r: cli.execute(r.argv, r.stdin)) for r in warm]

    def check(self, results) -> list:
        return [req.outcome(*res) for req, res in zip(self.requests, results)]

    def render(self, results) -> bytes:
        return b"".join(b"%d\n%d\n" % (code, len(out)) + out for code, out in results)


class ColdCli(Workload):
    """One ``python -m newton_strata`` subprocess per request, run one at a time."""

    name = "cold-cli"
    tail_percentile = 90

    def __init__(self, ns, seed: int):
        self.requests = request_stream(random.Random(f"{self.name}:{seed}"), SMALL_MIX)
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ops = [(lambda r=r: self._call(r)) for r in self.requests]
        self.warm_ops = self.ops[:2]

    def _call(self, req: Request):
        if self.tracer is None:
            argv = [sys.executable, "-m", "newton_strata", *req.argv]
            proc = subprocess.run(argv, input=req.stdin, capture_output=True,
                                  env=self.env, cwd=ROOT, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        return self._traced_call(req)

    def _traced_call(self, req: Request):
        spans = self.span_dir / "spans.json"
        argv = [sys.executable, str(HERE / "child.py"), str(spans), *req.argv]
        span = self.tracer.begin("process")
        spawned = perf_counter_ns()
        proc = subprocess.run(argv, input=req.stdin, capture_output=True,
                              env=self.env, cwd=ROOT, timeout=120)
        self.tracer.finish(span)
        data = json.loads(spans.read_text())
        spans.unlink()
        self.tracer.samples["process.interpreter_start"].append(data["t0"] - spawned)
        self.tracer.samples["process.import_cli"].append(data["import_ns"])
        self.tracer.merge(data, span)
        return proc.returncode, proc.stdout, proc.stderr

    @contextlib.contextmanager
    def tracing(self, tracer):
        self.span_dir = ROOT / ".bench_tmp"
        self.span_dir.mkdir(exist_ok=True)
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None
            for leftover in self.span_dir.iterdir():
                leftover.unlink()
            self.span_dir.rmdir()

    def check(self, results) -> list:
        outcomes = []
        for req, (code, stdout, stderr) in zip(self.requests, results):
            out, other = (stdout, stderr) if code == 0 else (stderr, stdout)
            outcomes.append(req.outcome(code, out) if not other else
                            f"{req.argv[0]}: unexpected bytes on the other stream")
        return outcomes

    def render(self, results) -> bytes:
        return b"".join(b"%d\n%d\n%d\n" % (code, len(so), len(se)) + so + se
                        for code, so, se in results)


class PosetLadder(Workload):
    """g = 1..TOP_G through enumerate_siegel, build_poset and to_dot, then leq queries."""

    name = "poset-ladder"
    TOP_G = 14
    QUERIES = 4000
    # p99 would fall among a pass's ~40 slowest calls, small rungs mixed with the
    # leq calls a host hiccup slowed; p90 is the upper body of the leq queries.
    tail_percentile = 90

    def __init__(self, ns, seed: int):
        self.modules = ns.modules
        strata = ns.strata
        rng = random.Random(f"{self.name}:{seed}")
        n = oracle.siegel_count(self.TOP_G)
        self.pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.QUERIES)]
        self.state: dict = {}
        state = self.state
        self.ops = []
        for g in range(1, self.TOP_G + 1):
            self.ops += [
                lambda g=g: state.__setitem__(("nodes", g), strata.enumerate_siegel(g, max_g=self.TOP_G)),
                lambda g=g: state.__setitem__(("poset", g), strata.build_poset(state["nodes", g])),
                lambda g=g: state.__setitem__(("dot", g), strata.to_dot(state["poset", g])),
            ]
        self.ops += [
            (lambda i=i, j=j: state["nodes", self.TOP_G][i].leq(state["nodes", self.TOP_G][j]))
            for i, j in self.pairs
        ]
        self.warm_ops = self.ops[: 3 * 8]  # the rungs g = 1..8

    def check(self, results) -> list:
        outcomes = []
        for g in range(1, self.TOP_G + 1):
            nodes = [dict(p.parts) for p in self.state["nodes", g]]
            poset = self.state["poset", g]
            enum_ok = len(nodes) == oracle.siegel_count(g) and all(
                oracle.siegel_admissible(p, g) for p in nodes)
            problems = oracle.poset_problems(g, [dict(p.parts) for p in poset.nodes],
                                             poset.cover_edges, poset.basic_index, poset.ordinary_index)
            if [dict(p.parts) for p in poset.nodes] != nodes:
                problems.append(f"g={g}: poset nodes differ from the enumeration")
            lines = self.state["dot", g].splitlines()
            labels = [f'  n{i} [label="{oracle.exponent_text(p)}"];' for i, p in enumerate(nodes)]
            edges = [f"  n{a} -> n{b};" for a, b in poset.cover_edges]
            dot_ok = lines == ["digraph strata {", *labels, *edges, "}"]
            outcomes += [OK if enum_ok else f"g={g}: enumeration not the symmetric polygons",
                         OK if not problems else "; ".join(problems),
                         OK if dot_ok else f"g={g}: DOT text"]
        top = self.state["poset", self.TOP_G]
        paths = [oracle.path_values(dict(p.parts), 2 * self.TOP_G) for p in top.nodes]
        for (i, j), answer in zip(self.pairs, results[3 * self.TOP_G:]):
            want = oracle.lies_above(paths[i], paths[j])
            outcomes.append(OK if answer is want and top.le(i, j) is want else
                            f"leq({i}, {j}) = {answer}, poset.le = {top.le(i, j)}, expected {want}")
        return outcomes

    def render(self, results) -> bytes:
        out = []
        for g in range(1, self.TOP_G + 1):
            poset = self.state["poset", g]
            out.append("\n".join(oracle.exponent_text(dict(p.parts)) for p in self.state["nodes", g]))
            out.append(json.dumps([poset.cover_edges, poset.basic_index, poset.ordinary_index]))
            out.append(self.state["dot", g])
        out.append("".join("1" if r else "0" for r in results[3 * self.TOP_G:]))
        return "\n".join(out).encode()


WORKLOADS = {cls.name: cls for cls in (PosetLadder, RequestMix, ColdCli)}
