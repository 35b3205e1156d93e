import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_strata import (
    PELSlopeDatum,
    SignatureDatum,
    build_poset,
    bueltel_wedhorn,
    condition_star,
    enumerate_siegel,
    hypersymmetric_verdict,
    is_B_symmetric,
    is_balanced,
    mu_ordinary,
    restrict,
    subfield_transfer,
    theorem_checklist,
)
from newton_strata.cli import COMMANDS, execute
from newton_strata.hypersym import verdict_to_json

from conftest import CORPUS

DATUM_FILES = ["example-3-5.json", "example-3-6.json", "remark-1.json", "remark-2.json"]


def run(*argv, stdin=b""):
    return execute(list(argv), stdin=stdin)


def result_of(out: bytes) -> dict:
    payload = json.loads(out.decode())
    assert set(payload) == {"command", "input_digest", "result"}
    return payload["result"]


def load_datum(corpus, name):
    return PELSlopeDatum.from_json(json.loads((corpus / name).read_text()))


# -- commands mirror the library ---------------------------------------------------


@pytest.mark.parametrize("name", DATUM_FILES)
def test_check_commands_mirror_library(corpus, name):
    path = str(corpus / name)
    datum = load_datum(corpus, name)

    code, out = run("check-balanced", "--input", path)
    assert code == 0 and result_of(out) == {"balanced": is_balanced(datum)}

    code, out = run("check-symmetric", "--input", path)
    assert code == 0 and result_of(out) == {"symmetric": is_B_symmetric(datum)}

    code, out = run("check-star", "--input", path)
    assert code == 0 and result_of(out) == {"condition_star": condition_star(datum)}

    code, out = run("verdict", "--input", path)
    assert code == 0
    assert result_of(out) == verdict_to_json(hypersymmetric_verdict(datum))

    code, out = run("restrict", "--input", path)
    assert code == 0 and result_of(out) == restrict(datum).to_json()

    code, out = run("hypotheses", "--input", path)
    report = theorem_checklist(datum)
    assert code == 0 and result_of(out) == {
        "hypersymmetric": report.hypersymmetric,
        "branch": report.branch.value,
        "satisfied": report.satisfied,
    }


def test_transfer_mirrors_library(corpus):
    for name in ["example-3-5.json", "remark-1.json", "remark-2.json"]:
        datum = load_datum(corpus, name)
        code, out = run("transfer", "--input", str(corpus / name))
        assert code == 0
        assert result_of(out) == {"transfer": subfield_transfer(datum).value}


def test_transfer_precondition_is_input_error(corpus):
    code, out = run("transfer", "--input", str(corpus / "example-3-6.json"))
    assert code == 2 and out.startswith(b"error:")


def test_check_balanced_with_brauer_flag(corpus):
    code, out = run(
        "check-balanced", "--brauer", "2", "--input", str(corpus / "remark-2.json")
    )
    assert code == 0
    assert result_of(out) == {"balanced": True, "zeta_b": False}


def test_muord_mirrors_library(corpus):
    raw = json.loads((corpus / "signature-3-5.json").read_text())
    sig = SignatureDatum.from_json(raw)
    polys = mu_ordinary(sig)
    code, out = run("muord", "--input", str(corpus / "signature-3-5.json"))
    assert code == 0
    assert result_of(out) == {
        "polygons": [
            {"name": o.name, "polygon": polys[o.name].to_json()} for o in sig.orbits
        ]
    }


def test_poset_mirrors_library():
    poset = build_poset(enumerate_siegel(2))
    code, out = run("poset", "--g", "2")
    assert code == 0
    assert result_of(out) == {
        "nodes": [n.to_json() for n in poset.nodes],
        "cover_edges": [list(e) for e in poset.cover_edges],
        "basic_index": poset.basic_index,
        "ordinary_index": poset.ordinary_index,
    }


def test_bw_mirrors_library():
    code, out = run("bw", "--n", "6", "--r", "2", "--scaling", "times_r")
    assert code == 0
    assert result_of(out) == {
        "polygon": bueltel_wedhorn(6, 2, "times_r").to_json()
    }


def test_weil_command(corpus):
    code, out = run("weil", "--input", str(corpus / "weil-onethird.json"))
    assert code == 0
    assert result_of(out)["a"] == 6


# -- stdin, formats, determinism -----------------------------------------------------


def test_stdin_input(corpus):
    raw = (corpus / "example-3-5.json").read_bytes()
    code, out = run("check-symmetric", stdin=raw)
    assert code == 0 and result_of(out) == {"symmetric": True}


def test_input_digest_tracks_bytes(corpus):
    raw = (corpus / "example-3-5.json").read_bytes()
    _, out1 = run("check-symmetric", stdin=raw)
    _, out2 = run("check-symmetric", "--input", str(corpus / "example-3-5.json"))
    assert json.loads(out1)["input_digest"] == json.loads(out2)["input_digest"]
    _, out3 = run("check-symmetric", stdin=raw.replace(b"3", b"2", 1))
    assert json.loads(out3)["input_digest"] != json.loads(out1)["input_digest"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_byte_determinism(corpus, fmt):
    for name in DATUM_FILES:
        for command in ["check-balanced", "check-symmetric", "verdict", "restrict"]:
            argv = [command, "--format", fmt, "--input", str(corpus / name)]
            assert run(*argv) == run(*argv)


def test_text_format_uses_exponent_notation(corpus):
    code, out = run(
        "verdict", "--format", "text", "--input", str(corpus / "example-3-5.json")
    )
    assert code == 0
    assert out.decode() == (
        "level: hypersymmetric\n"
        "component 1:\n"
        "  v: (0)^1\n"
        "  vstar: (1)^1\n"
        "component 2:\n"
        "  v: (1/2)^3\n"
        "  vstar: (1/2)^3\n"
    )


def test_dot_output_matches_golden(corpus):
    code, out = run("poset", "--g", "2", "--dot")
    assert code == 0
    assert out == (corpus / "golden" / "poset-g2.dot").read_bytes()


# SHA-256 of `poset --g G --dot` for the rungs past the golden files, which
# pins node order and covers up to the CLI's bound.
DOT_DIGESTS = {
    4: "123c3d56d07594a749873cbfa7fca77a16e78cb333811272808f8b308cde2b54",
    5: "5977b4c09abc25e914e9172bec36071909b28fabee6a3d8e4851c1648ef98b01",
    6: "605e105c3c1362ca7298be87d05230867bcdf682b7837f2c30dbbdebcecf8398",
    7: "68741d5860f8f2af1b0a735b8e360114c81dc9f7071927359b1349ab7285e9ef",
    8: "bbb3235c928fa96bdc50b8233aa7d17f8136250a2fded4c813f0ad1916467fd5",
    9: "159d35da9a82cfc3cbb7c30f87cbe69d42697516dde21882c6ced4730f6f296f",
    10: "7e7c2290bf53741dd5a97fc50608fd76a5450c9a685568369d9652d0460d4a9a",
    11: "a034baf61aad2f1c2ded49df14404a310f6d30970974d31859a48a0b0669a0a7",
    12: "8670fe8c141434b19fcff6ac2fbbfd6ff0d179de3cd11ce6771035b7cccdce08",
}


@pytest.mark.parametrize("g", sorted(DOT_DIGESTS))
def test_dot_output_digest(g):
    code, out = run("poset", "--g", str(g), "--dot")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == DOT_DIGESTS[g]


# -- exit codes ------------------------------------------------------------------------


def test_malformed_fixtures_exit_2(corpus):
    fixtures = sorted((corpus / "malformed").glob("*.json"))
    assert len(fixtures) == 5
    for path in fixtures:
        code, out = run("verdict", "--input", str(path))
        assert code == 2, path.name
        assert out.startswith(b"error:") and out.endswith(b"\n")
        assert out.count(b"\n") == 1  # one-line diagnostic


def test_slope_diagnostic_names_place(corpus):
    code, out = run(
        "verdict", "--input", str(corpus / "malformed" / "slope-out-of-range.json")
    )
    assert code == 2 and b"u1" in out


def test_unknown_flags_and_commands_exit_2():
    assert run("verdict", "--frobnicate")[0] == 2
    assert run("frobnicate")[0] == 2
    assert run("poset")[0] == 2  # missing --g
    assert run("poset", "--g", "13")[0] == 2  # above the configured bound
    assert run("bw", "--n", "4", "--r", "3")[0] == 2  # r > n/2


def _datum_with(slope: str, mult: str) -> bytes:
    return (
        '{"cm": false, "places": [{"name": "v", "kind": "inert", "above": '
        f'[{{"name": "v", "polygon": [["{slope}", {mult}]]}}]}}]}}'
    ).encode()


@pytest.mark.parametrize(
    "stdin",
    [
        _datum_with("1/" + "7" * 5000, "1"),  # slope past the int-string digit limit
        b"[" * 100000,  # nesting deeper than the JSON decoder's recursion limit
        _datum_with("1/2", "1" + "0" * 5000),  # integer literal past the digit limit
    ],
    ids=["huge-slope", "deep-json", "huge-int"],
)
def test_oversized_input_exits_2(stdin):
    code, out = run("verdict", stdin=stdin)
    assert code == 2
    assert out.startswith(b"error: ") and out.count(b"\n") == 1 and out.endswith(b"\n")


def test_missing_input_file_exits_2(tmp_path):
    code, out = run("verdict", "--input", str(tmp_path / "absent.json"))
    assert code == 2


def test_internal_error_exits_1(monkeypatch, corpus):
    import newton_strata.cli as cli_mod

    def boom(_):
        raise RuntimeError("wired to fail")

    monkeypatch.setattr(cli_mod.hypersym, "hypersymmetric_verdict", boom)
    code, out = run("verdict", "--input", str(corpus / "example-3-5.json"))
    assert code == 1 and out.startswith(b"internal error:")


def test_verdict_truth_never_leaks_into_exit_code(corpus):
    # a None verdict still exits 0; the level is in the payload
    code, out = run("verdict", "--input", str(corpus / "example-3-6.json"))
    assert code == 0 and result_of(out)["level"] == "none"


def test_console_entry_point(corpus):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "newton_strata", "poset", "--g", "2", "--dot"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (corpus / "golden" / "poset-g2.dot").read_bytes()

    proc = subprocess.run(
        [sys.executable, "-m", "newton_strata", "check-symmetric"],
        input=(corpus / "example-3-5.json").read_bytes(),
        capture_output=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"symmetric": True}

    proc = subprocess.run(
        [sys.executable, "-m", "newton_strata", "verdict", "--input", "/nonexistent"],
        capture_output=True,
    )
    assert proc.returncode == 2 and proc.stderr.startswith(b"error:")


# -- fuzzing: every command, arbitrary stdin ---------------------------------------

# Flags a command needs before it reads anything; the rest take only stdin.
REQUIRED_FLAGS = {"poset": ["--g", "2"], "bw": ["--n", "4", "--r", "1"]}
# Valid inputs per command (poset and bw read none); swapping one of their
# subtrees gets past the top-level checks that reject almost every arbitrary tree.
VALID_INPUTS = {
    "muord": ["signature-3-5.json", "signature-3-6.json"],
    "weil": ["weil-onethird.json"],
}
SCHEMA_KEYS = ["cm", "places", "name", "kind", "above", "polygon",
               "d", "orbits", "f", "h", "pairs", "w", "wbar", "slope"]
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["split", "inert", "0", "1", "1/2", "1/3", "2/3", "u", "v"])
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=4), children, max_size=5),
    max_leaves=24,
)


def _subtree_paths(tree, path=()):
    """Key/index paths to every node of a JSON tree, the root's () included."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, child in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from _subtree_paths(child, (*path, key))


def _replace(tree, path, new):
    if not path:
        return new
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[path[0]] = _replace(tree[path[0]], path[1:], new)
    return copy


def _fuzz_stdin(command):
    """Arbitrary bytes, arbitrary JSON trees, or a valid input with one subtree swapped."""
    docs = [json.loads((CORPUS / name).read_text()) for name in VALID_INPUTS.get(command, DATUM_FILES)]
    swapped = st.sampled_from(docs).flatmap(lambda doc: st.builds(
        _replace, st.just(doc), st.sampled_from(list(_subtree_paths(doc))), JSON_LEAVES | JSON_TREES
    ))
    return st.binary(max_size=200) | (JSON_TREES | swapped).map(lambda tree: json.dumps(tree).encode())


FUZZ_STDIN = {command: _fuzz_stdin(command) for command in COMMANDS}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), text=st.booleans())
def test_fuzzed_stdin_exits_0_or_2_with_stable_bytes(command, data, text):
    stdin = data.draw(FUZZ_STDIN[command], label="stdin")
    argv = [command, *REQUIRED_FLAGS.get(command, []), *(["--format", "text"] if text else [])]
    code, out = execute(argv, stdin=stdin)
    assert code in (0, 2), out
    if code == 2:
        assert out.startswith(b"error: ") and out.endswith(b"\n") and out.count(b"\n") == 1
    assert execute(argv, stdin=stdin) == (code, out)
