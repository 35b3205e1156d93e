"""Command-line front end.

Every command is a thin adapter over one library call: parse the documented
JSON schema, dispatch, render.  Exit code 0 means the evaluation completed
(the verdict itself lives in the payload), 2 means rejected input, 1 means an
internal bug.  Output bytes are deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Callable, NamedTuple, Sequence

from . import hypersym, muord, pel, strata, weil
from .errors import SchemaError, SlopeDataError

JSON = "json"
TEXT = "text"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise SchemaError(message)


def _parse_json(input_bytes: bytes):
    try:
        return json.loads(input_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def _datum(obj) -> pel.PELSlopeDatum:
    return pel.PELSlopeDatum.from_json(obj)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _key_values(result: dict) -> str:
    """One ``key: value`` line per entry, booleans as true/false."""
    return "".join(
        f"{key}: {_bool(value) if isinstance(value, bool) else value}\n"
        for key, value in result.items()
    )


def _datum_text(datum: pel.PELSlopeDatum) -> str:
    lines = [f"cm: {_bool(datum.tower.cm)}"]
    lines += [f"{name}: {poly.exponent_str()}" for name, poly in datum.polygons]
    return "\n".join(lines) + "\n"


def _verdict_text(verdict: hypersym.HypVerdict) -> str:
    lines = [f"level: {verdict.level.value}"]
    components = verdict.witness.components if verdict.witness else ()
    for i, comp in enumerate(components, start=1):
        lines.append(f"component {i}:")
        lines += [f"  {name}: {poly.exponent_str()}" for name, poly in comp.polygons]
    return "\n".join(lines) + "\n"


def _check_balanced(args, datum: pel.PELSlopeDatum) -> dict:
    result = {"balanced": hypersym.is_balanced(datum)}
    if args.brauer is not None:
        result["zeta_b"] = hypersym.is_zeta_B(datum, args.brauer)
    return result


def _hypotheses(args, datum: pel.PELSlopeDatum) -> dict:
    report = hypersym.theorem_checklist(datum)
    return {
        "hypersymmetric": report.hypersymmetric,
        "branch": report.branch.value,
        "satisfied": report.satisfied,
    }


def _poset(args, _):
    poset = strata.build_poset(strata.enumerate_siegel(args.g))
    return strata.to_dot(poset) if args.dot else poset


def _poset_json(poset: strata.StrataPoset) -> dict:
    return {
        "nodes": [node.to_json() for node in poset.nodes],
        "cover_edges": [list(edge) for edge in poset.cover_edges],
        "basic_index": poset.basic_index,
        "ordinary_index": poset.ordinary_index,
    }


def _poset_text(poset: strata.StrataPoset) -> str:
    lines = [f"nodes: {len(poset.nodes)}"]
    lines += [f"n{i}: {node.exponent_str()}" for i, node in enumerate(poset.nodes)]
    lines.append(f"basic: n{poset.basic_index}")
    lines.append(f"ordinary: n{poset.ordinary_index}")
    lines += [f"cover: n{a} -> n{b}" for a, b in poset.cover_edges]
    return "\n".join(lines) + "\n"


def _weil_text(result: dict) -> str:
    lines = [f"a: {result['a']}", f"c: {result['c']}"]
    lines += [
        f"{entry['w']}/{entry['wbar']}: m={entry['m']} n={entry['n']} "
        f"inert_compatible={_bool(entry['inert_compatible'])}"
        for entry in result["per_pair"]
    ]
    return "\n".join(lines) + "\n"


class _Command(NamedTuple):
    """``read`` builds the input from its JSON (None: no input); ``compute(args,
    input)`` returns the value to render, or finished output text (DOT).

    Library functions are looked up through their module on every call, so a
    monkeypatched or traced module attribute sees the call.
    """

    read: Callable | None
    compute: Callable
    to_json: Callable = lambda value: value
    to_text: Callable = _key_values
    arguments: tuple = ()  # (flag, add_argument keywords) pairs


COMMANDS = {
    "check-balanced": _Command(_datum, _check_balanced, arguments=(
        ("--brauer", {"type": int, "default": None,
                      "help": "also test for the all-(1/2) polygon of this Brauer order"}),
    )),
    "check-symmetric": _Command(
        _datum, lambda args, datum: {"symmetric": hypersym.is_B_symmetric(datum)}),
    "check-star": _Command(
        _datum, lambda args, datum: {"condition_star": pel.condition_star(datum)}),
    "verdict": _Command(
        _datum, lambda args, datum: hypersym.hypersymmetric_verdict(datum),
        lambda verdict: hypersym.verdict_to_json(verdict), _verdict_text),
    "restrict": _Command(
        _datum, lambda args, datum: pel.restrict(datum),
        lambda restricted: restricted.to_json(), _datum_text),
    "transfer": _Command(
        _datum, lambda args, datum: {"transfer": hypersym.subfield_transfer(datum).value}),
    "hypotheses": _Command(_datum, _hypotheses),
    "muord": _Command(
        lambda obj: muord.SignatureDatum.from_json(obj),
        lambda args, sig: muord.mu_ordinary(sig),
        lambda polys: {
            "polygons": [{"name": n, "polygon": p.to_json()} for n, p in polys.items()]
        },
        lambda polys: "".join(f"{n}: {p.exponent_str()}\n" for n, p in polys.items())),
    "poset": _Command(None, _poset, _poset_json, _poset_text, arguments=(
        ("--g", {"type": int, "required": True}),
        ("--dot", {"action": "store_true"}),
    )),
    "bw": _Command(
        None, lambda args, _: strata.bueltel_wedhorn(args.n, args.r, args.scaling),
        lambda poly: {"polygon": poly.to_json()}, lambda poly: poly.exponent_str() + "\n",
        arguments=(
            ("--n", {"type": int, "required": True}),
            ("--r", {"type": int, "required": True}),
            ("--scaling", {"choices": [strata.LITERAL, strata.TIMES_R],
                           "default": strata.LITERAL}),
        )),
    "weil": _Command(
        lambda obj: weil.CMPlaceSlopes.from_json(obj),
        lambda args, slopes: weil.exponents_to_json(slopes, weil.weil_parameters(slopes)),
        to_text=_weil_text),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="newton-strata", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        if command.read is not None:
            p.add_argument("--input", default=None, help="input file (default: stdin)")
        p.add_argument("--format", choices=[JSON, TEXT], default=JSON)
        for flag, kwargs in command.arguments:
            p.add_argument(flag, **kwargs)
    return parser


def execute(argv: Sequence[str], stdin: bytes | Callable[[], bytes] = b"") -> tuple[int, bytes]:
    """Run one invocation; returns (exit_code, output_bytes)."""
    try:
        args = _build_parser().parse_args(list(argv))
        command = COMMANDS[args.command]
        input_bytes = b""
        parsed = None
        if command.read is not None:
            if args.input is not None:
                try:
                    with open(args.input, "rb") as fh:
                        input_bytes = fh.read()
                except OSError as exc:
                    raise SchemaError(f"cannot read input: {exc}") from exc
            else:
                input_bytes = stdin() if callable(stdin) else stdin
            parsed = command.read(_parse_json(input_bytes))
        value = command.compute(args, parsed)
        if isinstance(value, str):
            return 0, value.encode()
        if args.format == TEXT:
            return 0, command.to_text(value).encode()
        payload = {
            "command": args.command,
            "input_digest": hashlib.sha256(input_bytes).hexdigest(),
            "result": command.to_json(value),
        }
        return 0, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    except SlopeDataError as exc:
        return 2, f"error: {exc}\n".encode()
    except Exception as exc:  # noqa: BLE001 - contract: any other escape is a bug
        return 1, f"internal error: {type(exc).__name__}: {exc}\n".encode()


def main(argv: Sequence[str] | None = None) -> int:
    code, output = execute(
        sys.argv[1:] if argv is None else argv,
        stdin=lambda: sys.stdin.buffer.read(),
    )
    stream = sys.stdout if code == 0 else sys.stderr
    stream.buffer.write(output)
    stream.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
