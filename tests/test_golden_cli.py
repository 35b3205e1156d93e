"""Replays the recorded CLI contract: exit code and output bytes per invocation.

``corpus/golden/cli.json`` holds one entry per invocation: the argv, the
corpus file passed with ``--input`` (or null), the exit code and the exact
output.  Regenerate it only when the contract changes on purpose:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
from pathlib import Path

import pytest

from newton_strata.cli import execute

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = CORPUS / "golden" / "cli.json"

DATUM_FILES = ["example-3-5.json", "example-3-6.json", "remark-1.json", "remark-2.json"]
DATUM_COMMANDS = [
    ["check-balanced"], ["check-balanced", "--brauer", "2"], ["check-symmetric"],
    ["check-star"], ["verdict"], ["restrict"], ["transfer"], ["hypotheses"],
]
FORMATS = [["--format", "json"], ["--format", "text"]]


def invocations() -> list:
    """(argv, input file relative to the corpus or None), in recording order."""
    cases = [
        (cmd + fmt, name) for name in DATUM_FILES for cmd in DATUM_COMMANDS for fmt in FORMATS
    ]
    cases += [
        (["muord"] + fmt, name)
        for name in ["signature-3-5.json", "signature-3-6.json"]
        for fmt in FORMATS
    ]
    cases += [(["weil"] + fmt, "weil-onethird.json") for fmt in FORMATS]
    cases += [
        (["poset", "--g", str(g)] + extra, None)
        for g in range(4)
        for extra in FORMATS + [["--dot"]]
    ]
    cases += [
        (["bw", "--n", n, "--r", r, "--scaling", scaling] + fmt, None)
        for n, r, scaling in [
            ("6", "2", "times_r"), ("6", "2", "literal"), ("5", "0", "literal"),
            ("8", "3", "times_r"), ("4", "3", "literal"),
        ]
        for fmt in FORMATS
    ]
    cases += [
        (["verdict"], f"malformed/{path.name}")
        for path in sorted((CORPUS / "malformed").glob("*.json"))
    ]
    cases += [
        (argv, input_name)
        for argv, input_name in [
            ([], None),
            (["frobnicate"], None),
            (["poset"], None),
            (["poset", "--g", "13"], None),
            (["poset", "--g", "two"], None),
            (["verdict", "--frobnicate"], "example-3-5.json"),
            (["verdict", "--format", "xml"], "example-3-5.json"),
            (["check-balanced", "--brauer", "0"], "example-3-5.json"),
            (["restrict"], "malformed/not-json.json"),
        ]
    ]
    return cases


def run(argv, input_name):
    if input_name is not None:
        argv = argv + ["--input", str(CORPUS / input_name)]
    return execute(argv)


def record() -> list:
    entries = []
    for argv, input_name in invocations():
        code, out = run(argv, input_name)
        entries.append(
            {"argv": argv, "input": input_name, "exit": code, "output": out.decode()}
        )
    return entries


def _case_id(entry) -> str:
    return " ".join(entry["argv"] + ([entry["input"]] if entry["input"] else []))


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_covers_every_invocation():
    recorded = [(e["argv"], e["input"]) for e in GOLDEN_ENTRIES]
    assert recorded == [(argv, name) for argv, name in invocations()]


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=_case_id)
def test_cli_output_matches_golden(entry):
    code, out = run(entry["argv"], entry["input"])
    assert code == entry["exit"]
    assert out == entry["output"].encode()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
