import contextlib
import functools
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import twistlat
from twistlat.bitgraph import build_gamma
from twistlat.builtin import STRUCTURE_FILES, raw_file
from twistlat.cli import _build_parser, main
from twistlat.patterns import pattern_from_json, pattern_to_json_dict


def _duplicated_crossing_pin():
    """u-placement with its crossing (a, b) listed a second time."""
    data = json.loads(raw_file(STRUCTURE_FILES["u-placement"]))
    data["crossing_bits"].append(["a", "b", 1])
    return json.dumps(data)


#: A pin on a, b, c of curves11 whose curve a visits c, which it does not meet.
_WRONG_PARTNER_PIN = json.dumps(
    {
        "visit_orders": {"a": ["c"], "b": ["a", "c"], "c": ["b"]},
        "crossing_bits": [["a", "b", 0], ["b", "c", 0]],
    }
)


def _repeated_key_pin():
    """u-placement with curve c given a second, reversed visit order; the
    repeated key comes first, so keeping the last value reads u-placement."""
    data = json.loads(raw_file(STRUCTURE_FILES["u-placement"]))
    again = json.dumps(data["visit_orders"]["c"][::-1])
    return json.dumps(data).replace('"visit_orders": {', '"visit_orders": {"c": %s, ' % again)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


@functools.lru_cache(maxsize=None)
def verify_paper_rows():
    """Pass/fail of each `verify-paper` row, computed once per session."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--json", "verify-paper"])
    return {row["name"]: row["pass"] for row in json.loads(out.getvalue())["rows"]}


def test_gamma_stats(capsys):
    code, data = run_json(capsys, "gamma", "stats", "--k", "4")
    assert code == 0
    assert data["vertices"] == 16 and data["edges"] == 65
    assert data["extremal"] == ["0000", "1111"]
    assert data["manifest"]["version"]
    assert data["manifest"]["command"] == "gamma stats"


def test_gamma_export_roundtrip(capsys):
    code, data = run_json(capsys, "gamma", "export", "--k", "3")
    assert code == 0
    assert data["export"] == build_gamma(3).to_json_dict()
    assert len(data["export"]["edges"]) == 19


def test_gamma_invalid_k(capsys):
    code, _ = run_cli(capsys, "gamma", "stats", "--k", "11")
    assert code == 2


def test_lattice_quotient(capsys):
    code, data = run_json(capsys, "lattice", "quotient", "--k", "4")
    assert code == 0
    assert data["rank"] == 10
    assert abs(data["determinant"]) == 1
    assert len(data["radical_basis"]) == 6


def test_lattice_quotient_degenerate_form(capsys):
    # at k=3 the induced form is not unimodular: no symplectic basis exists
    code, data = run_json(capsys, "lattice", "quotient", "--k", "3")
    assert code == 0
    assert data["symplectic_basis"] is None
    assert "unimodular" in data["symplectic_basis_note"]
    assert abs(data["determinant"]) != 1


def test_lattice_rank_subsets(capsys):
    code, data = run_json(capsys, "lattice", "rank", "--k", "4")
    assert code == 0 and data["rank"] == 10
    code, data = run_json(capsys, "lattice", "rank", "--k", "4", "--non-extremal")
    assert code == 0 and data["rank"] == 9
    code, data = run_json(capsys, "lattice", "rank", "--k", "4", "--subset", "0001")
    assert code == 0 and data["rank"] == 1


def test_chains_verify_good_and_bad(capsys):
    good = "0001,0101,0100,0110,0010,1010,1000"
    code, data = run_json(capsys, "chains", "verify", "--seq", good)
    assert code == 0 and data["is_chain"] is True
    bad = "0000,0001,0011"
    code, data = run_json(capsys, "chains", "verify", "--seq", bad)
    assert code == 1 and data["is_chain"] is False
    code, _ = run_cli(capsys, "chains", "verify", "--seq", "0001,zzz")
    assert code == 2


def test_chains_verify_cycle(capsys):
    cyc = "0001,0101,0100,0110,0010,1010,1000,1001"
    code, data = run_json(capsys, "chains", "verify", "--cycle", "--seq", cyc)
    assert code == 0 and data["is_induced_cycle"] is True


def test_chains_enumerate(capsys):
    code, data = run_json(
        capsys, "chains", "enumerate", "--length", "2", "--k", "1"
    )
    assert code == 0
    assert data["paths"] == [["0", "1"]]


def test_chains_witnesses(capsys):
    code, data = run_json(capsys, "chains", "witnesses")
    assert code == 0
    assert data["witnesses"]["0011"] == 3
    assert data["witnesses"]["0000"] is None


def test_lattice_gram_and_radical(capsys):
    code, data = run_json(capsys, "lattice", "gram", "--k", "2")
    assert code == 0
    assert data["gram"] == [[0, 1, 1, -1], [-1, 0, 0, 1], [-1, 0, 0, 1], [1, -1, -1, 0]]
    code, data = run_json(capsys, "lattice", "radical", "--k", "4")
    assert code == 0 and len(data["radical_basis"]) == 6


def test_gamma_export_dot_to_file(tmp_path, capsys):
    out = tmp_path / "g.dot"
    code, _ = run_json(
        capsys, "gamma", "export", "--k", "2", "--format", "dot", "-o", str(out)
    )
    assert code == 0
    text = out.read_text()
    assert text.count("--") == 5 and '"00"' in text


def test_rep_export(capsys):
    code, data = run_json(capsys, "rep", "export", "--k", "2")
    assert code == 0
    assert set(data["transvections"]) == {"00", "01", "10", "11"}
    assert data["relation_report"]["pair_failures"] == []
    assert len(data["quadratic_refinement"]) == 2 ** len(data["transvections"]["00"][0]) or True
    assert data["witness_words"]["00"] == []


def test_rep_check_relations(capsys):
    # k = 2..5, the default sign being both
    for k in ("2", "5"):
        code, data = run_json(capsys, "rep", "check-relations", "--k", k)
        assert (code, data["ok"]) == (0, True), k
    code, data = run_json(capsys, "rep", "check-relations", "--k", "3", "--sign", "both")
    assert code == 0 and data["ok"] is True
    code, data = run_json(capsys, "rep", "check-relations", "--k", "4", "--sign", "both")
    assert code == 0 and data["ok"] is True
    assert data["manifest"]["verdicts"] == {
        f"{name}(sign={sign})": True
        for sign in ("+1", "-1")
        for name in ("relations", "transvection-shape")
    }
    # the verify-paper rows run the same check at k=4
    rows = verify_paper_rows()
    assert rows["transvection-shape"] and rows["pair-relations"] and rows["triangle-relations"]


def test_rep_qform(capsys):
    code, data = run_json(capsys, "rep", "qform", "--k", "4")
    assert code == 0
    assert data["identity_ok"] and data["invariant_ok"]
    assert data["values_on_classes"] == [1] * 16


@pytest.mark.parametrize("cmd", ["qform", "export"])
def test_rep_refinement_rank_guard(capsys, cmd):
    code, data = run_json(capsys, "rep", cmd, "--k", "5")
    assert code == 2 and "rank 32" in data["error"]


def test_rep_parity(capsys):
    code, data = run_json(capsys, "rep", "parity")
    assert code == 0
    assert data["nonzero"] is True and data["parity"] == 1


def test_rep_irreducible_single_seed(capsys):
    code, data = run_json(capsys, "rep", "irreducible", "--seed", "0001")
    assert code == 0
    assert data["closure_dims"] == {"0001": 10}
    # every seed, as the verify-paper row checks it
    code, data = run_json(capsys, "rep", "irreducible")
    assert code == 0 and data["manifest"]["verdicts"]["irreducible"] is True
    assert len(data["closure_dims"]) == 16
    assert set(data["closure_dims"].values()) == {10} and data["rank"] == 10
    assert verify_paper_rows()["irreducibility"]


#: The `verify-paper` rows that both modes share, in scoreboard order.
PAPER_ROWS = [
    "graph-shape", "extremal-vertices", "seven-chain", "affine-cycle",
    "commuting-partners", "lattice-ranks", "nonextremal-span", "quotient-pairing",
    "unimodularity", "transvection-shape", "pair-relations", "triangle-relations",
    "conjugacy-witnesses", "quadratic-refinement", "irreducibility",
    "homology-parity", "chain-neighborhood", "ten-curve-realizable",
]


@pytest.mark.parametrize(
    "mode, last_row",
    [((), "twelve-curve-pattern"), (("--fallback-only",), "eleven-curve-constrained")],
    ids=["full", "fallback-only"],
)
def test_verify_paper_rows_and_single_check_verdicts(capsys, mode, last_row):
    code, data = run_json(capsys, "verify-paper", *mode)
    rows = {row["name"]: row["pass"] for row in data["rows"]}
    assert [row["name"] for row in data["rows"]] == PAPER_ROWS + [last_row]
    assert code == 0 and all(rows.values())
    assert data["passed"] == data["total"] == 19
    assert data["manifest"]["verdicts"] == rows
    # each single-check subcommand reports the verdict of its row
    for argv, verdict, row in (
        (("rep", "qform"), "qform", "quadratic-refinement"),
        (("rep", "irreducible"), "irreducible", "irreducibility"),
        (("rep", "parity"), "parity", "homology-parity"),
        (("chains", "witnesses"), "commuting-partners", "commuting-partners"),
    ):
        code, data = run_json(capsys, *argv)
        assert data["manifest"]["verdicts"] == {verdict: rows[row]}
        assert code == (0 if rows[row] else 1)


def test_realize_validate_builtin(capsys):
    code, data = run_json(capsys, "realize", "validate", "--builtin", "curves12")
    assert code == 0
    assert data["crossings"] == 24
    assert data["problems"] == []


def test_realize_validate_bad_pattern(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"curves": ["x", "y"], "intersections": []}))
    code, data = run_json(capsys, "realize", "validate", "--pattern", str(f))
    assert code == 2
    assert any("isolated" in msg for msg in data["problems"])


def test_realize_bound(capsys):
    code, data = run_json(capsys, "realize", "bound", "--builtin", "chain7")
    assert code == 0 and data["f2_genus_lower_bound"] == 3


def test_realize_min_genus_and_witness(tmp_path, capsys):
    out = tmp_path / "wit.json"
    code, data = run_json(
        capsys,
        "realize",
        "min-genus",
        "--builtin",
        "chain7",
        "--budget",
        "5",
        "--witness-out",
        str(out),
    )
    assert code == 0
    assert data["verdict"] == "exact" and data["genus"] == 3
    saved = json.loads(out.read_text())
    assert set(saved) == {"visit_orders", "crossing_bits"}


def test_witness_out_holds_null_when_the_answer_has_none(tmp_path, capsys):
    """A later answer without a witness replaces an earlier witness file."""
    out = tmp_path / "wit.json"
    code, _ = run_json(capsys, "realize", "min-genus", "--builtin", "chain7", "--witness-out", str(out))
    assert code == 0 and json.loads(out.read_text()) is not None
    code, data = run_json(
        capsys, "realize", "check", "--builtin", "curves12", "--genus", "1", "--witness-out", str(out)
    )
    assert code == 0 and data["realizable"] is False
    assert json.loads(out.read_text()) is None


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", "check", "--builtin", "curves12", "--genus", "1"),
        ("realize", "min-genus", "--builtin", "chain7"),
    ],
    ids=["check-not-realizable", "min-genus"],
)
def test_unwritable_witness_prints_only_the_error(tmp_path, capsys, argv):
    """The answer said before the witness write failed is not printed."""
    code, out = run_cli(capsys, *argv, "--witness-out", str(tmp_path))
    assert code == 2
    assert len(out.splitlines()) == 1 and out.startswith("invalid input:")


def test_realize_check_with_fixed(capsys):
    code, data = run_json(
        capsys,
        "realize",
        "check",
        "--builtin",
        "curves11",
        "--genus",
        "5",
        "--fixed-builtin",
        "u-placement",
    )
    assert code == 0
    assert data["realizable"] is False and data["exhausted"] is True


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_unknown_pin_curves_message_is_sorted(hash_seed):
    """The unknown labels are printed sorted, so the message does not
    depend on string hashing (these two seeds print sets differently)."""
    src = os.path.dirname(os.path.dirname(twistlat.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = "realize check --builtin chain7 --genus 5 --fixed-builtin u-placement"
    out = subprocess.run(
        [sys.executable, "-m", "twistlat", *argv.split()],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == "invalid input: fixed structure names unknown curves ['h', 'u', 'v']\n"


def test_pinned_check_reads_each_bundled_file_once(capsys, monkeypatch):
    """A pinned check reads the bundled pattern and pin once each, and
    hashes and parses the text it read."""
    from twistlat import builtin

    files, opened = builtin.resources.files, []

    def counted_files(package):
        opened.append(package)
        return files(package)

    monkeypatch.setattr(builtin.resources, "files", counted_files)
    code, data = run_json(
        capsys, "realize", "check", "--builtin", "curves11", "--genus", "5",
        "--fixed-builtin", "u-placement",
    )
    assert (code, data["realizable"], data["nodes_explored"]) == (0, False, 18_542)
    assert len(opened) == 2
    assert sorted(data["manifest"]["input_hashes"]) == ["builtin:curves11", "builtin:u-placement"]


def test_realize_node_cap_inconclusive(capsys):
    code, data = run_json(
        capsys,
        "realize",
        "min-genus",
        "--builtin",
        "curves10",
        "--budget",
        "5",
        "--node-cap",
        "5",
    )
    assert code == 3
    assert data["nodes_explored"] > 0


def test_pattern_file_roundtrip(tmp_path, capsys):
    code, data = run_json(capsys, "realize", "validate", "--builtin", "cycle8")
    text = json.dumps(data["pattern"], sort_keys=True)
    p = pattern_from_json(text)
    assert json.dumps(pattern_to_json_dict(p), sort_keys=True) == text


def test_missing_pattern_argument(capsys):
    code, _ = run_cli(capsys, "realize", "bound")
    assert code == 2


def test_manifest_embeds_hashes(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(
        json.dumps({"curves": ["x", "y"], "intersections": [["x", "y"]]})
    )
    code, data = run_json(capsys, "realize", "bound", "--pattern", str(f))
    assert code == 0
    assert str(f) in data["manifest"]["input_hashes"]


def test_manifests_identical_modulo_timing(capsys):
    _, d1 = run_json(capsys, "lattice", "quotient", "--k", "4")
    _, d2 = run_json(capsys, "lattice", "quotient", "--k", "4")
    for d in (d1, d2):
        d["manifest"].pop("wall_time_s")
    assert d1 == d2


@pytest.mark.parametrize(
    "argv, file_text, expected",
    [
        # bit-strings that are not vertices of the k=4 graph
        (("lattice", "rank", "--k", "4", "--subset", "01"), None, 2),
        (("rep", "irreducible", "--seed", "01"), None, 2),
        # truncated JSON
        (("realize", "validate", "--pattern", "{file}"), '{"curves": ["x"', 2),
        (
            ("realize", "check", "--builtin", "chain7", "--genus", "3")
            + ("--fixed", "{file}"),
            '{"visit_orders": {',
            2,
        ),
        # JSON of the wrong shape
        (("realize", "validate", "--pattern", "{file}"), '{"curves": 5, "intersections": []}', 2),
        (
            ("realize", "validate", "--pattern", "{file}"),
            '{"curves": ["x", "y"], "intersections": [["x"]]}',
            2,
        ),
        (
            ("realize", "check", "--builtin", "chain7", "--genus", "3")
            + ("--fixed", "{file}"),
            '{"visit_orders": [], "crossing_bits": []}',
            2,
        ),
        # negative genus, budget or node cap, and no thread to run on
        (("realize", "check", "--builtin", "chain7", "--genus", "-1"), None, 2),
        (("realize", "min-genus", "--builtin", "chain7", "--budget", "-1"), None, 2),
        (("realize", "min-genus", "--builtin", "chain7", "--node-cap", "-1"), None, 2),
        (("realize", "check", "--builtin", "chain7", "--genus", "3", "--threads", "0"), None, 2),
        (("chains", "enumerate", "--length", "7", "--avoid-extremal", "--limit", "-1"), None, 2),
        # an empty item in a comma-separated list of bit-strings
        (("chains", "verify", "--seq", ""), None, 2),
        (("chains", "verify", "--seq", "0001,,0101"), None, 2),
        (("lattice", "rank", "--subset", ""), None, 2),
        # one input named two ways: valid files, so only the conflict fails
        (
            ("realize", "bound", "--builtin", "chain7", "--pattern", "{file}"),
            '{"curves": ["x", "y"], "intersections": [["x", "y"]]}',
            2,
        ),
        (
            ("realize", "check", "--builtin", "chain7", "--genus", "3")
            + ("--fixed", "{file}", "--fixed-builtin", "u-placement"),
            '{"visit_orders": {"a": ["b"], "b": ["a"]}, "crossing_bits": [["a", "b", 0]]}',
            2,
        ),
        (("lattice", "rank", "--subset", "0101", "--non-extremal"), None, 2),
        # a pin listing one crossing twice, at a genus where it would search
        (
            ("realize", "check", "--builtin", "curves11", "--genus", "6")
            + ("--fixed", "{file}"),
            _duplicated_crossing_pin(),
            2,
        ),
        # the same pin where the homology bound alone answers: still checked
        (
            ("realize", "check", "--builtin", "curves11", "--genus", "1")
            + ("--fixed", "{file}"),
            _duplicated_crossing_pin(),
            2,
        ),
        # a visit order naming a wrong partner, above and below the bound
        (
            ("realize", "check", "--builtin", "curves11", "--genus", "5")
            + ("--fixed", "{file}"),
            _WRONG_PARTNER_PIN,
            2,
        ),
        (
            ("realize", "check", "--builtin", "curves11", "--genus", "0")
            + ("--fixed", "{file}"),
            _WRONG_PARTNER_PIN,
            2,
        ),
        # a key repeated in one JSON object, in a pin and in a pattern
        (
            ("realize", "check", "--builtin", "curves11", "--genus", "1")
            + ("--fixed", "{file}"),
            _repeated_key_pin(),
            2,
        ),
        (
            ("realize", "bound", "--pattern", "{file}"),
            '{"curves": ["x", "y", "z"], "curves": ["x", "y"], "intersections": [["x", "y"]]}',
            2,
        ),
        # a string where a list or a pair is meant is not read letter by letter
        (
            ("realize", "min-genus", "--pattern", "{file}"),
            '{"curves": "xy", "intersections": ["xy"]}',
            2,
        ),
        (
            ("realize", "min-genus", "--pattern", "{file}"),
            '{"curves": ["x", "y"], "intersections": ["xy"]}',
            2,
        ),
        (
            ("realize", "check", "--builtin", "chain7", "--genus", "3")
            + ("--fixed", "{file}"),
            '{"visit_orders": {"a": "b", "b": ["a"]}, "crossing_bits": [["a", "b", 0]]}',
            2,
        ),
        # a curve label is a string: witnesses sort labels, and 2 < "x" fails
        (
            ("realize", "min-genus", "--pattern", "{file}"),
            '{"curves": ["x", 2], "intersections": [["x", 2]]}',
            2,
        ),
        # a crossing bit is the JSON integer 0 or 1
        *(
            (
                ("realize", "check", "--builtin", "chain7", "--genus", "3")
                + ("--fixed", "{file}"),
                '{"visit_orders": {"a": ["b"], "b": ["a"]}, "crossing_bits": [["a", "b", %s]]}'
                % bit,
                2,
            )
            for bit in ("1.9", '"1"', "true")
        ),
        # a structure's labels are strings too: a list label is unhashable
        *(
            (
                ("realize", "check", "--builtin", "chain7", "--genus", "3")
                + ("--fixed", "{file}"),
                '{"visit_orders": {"a": [%s], "b": ["a"]}, "crossing_bits": [[%s, %s, 0]]}'
                % labels,
                2,
            )
            for labels in (
                ('"b"', '["a"]', '["b"]'),
                ('"b"', '"a"', "2"),
                ('["b"]', '"a"', '"b"'),
            )
        ),
        # a path that cannot be read or written as a file
        (("realize", "bound", "--pattern", "{dir}"), None, 2),
        (("realize", "check", "--builtin", "chain7", "--genus", "3", "--fixed", "{dir}"), None, 2),
        (
            ("realize", "check", "--builtin", "chain7", "--genus", "3")
            + ("--witness-out", "{dir}"),
            None,
            2,
        ),
        # also when the answer has no witness to write
        (("realize", "check", "--builtin", "curves12", "--genus", "1", "--witness-out", "{dir}"), None, 2),
        (("realize", "min-genus", "--builtin", "chain7", "--budget", "0", "--witness-out", "{dir}"), None, 2),
        # an empty value is a given value, not an absent one
        (("realize", "check", "--builtin", "curves11", "--genus", "5", "--fixed", ""), None, 2),
        (("realize", "bound", "--pattern", "", "--builtin", "chain7"), None, 2),
        (
            ("realize", "check", "--builtin", "curves11", "--genus", "1")
            + ("--fixed", "", "--fixed-builtin", "u-placement"),
            None,
            2,
        ),
        (("rep", "irreducible", "--seed", ""), None, 2),
        (("gamma", "export", "--output", ""), None, 2),
        (("realize", "check", "--builtin", "chain7", "--genus", "3", "--witness-out", ""), None, 2),
        # a pattern that lists one pair twice, in either order
        (
            ("realize", "min-genus", "--pattern", "{file}"),
            '{"curves": ["a", "b"], "intersections": [["a", "b"], ["b", "a"]]}',
            2,
        ),
        # a file that is not UTF-8
        (("realize", "bound", "--pattern", "{file}"), b'\xff\xfe{"curves"', 2),
        (
            ("realize", "check", "--builtin", "chain7", "--genus", "3")
            + ("--fixed", "{file}"),
            b"\xff\xfe{",
            2,
        ),
    ],
    ids=[
        "lattice-subset",
        "rep-seed",
        "pattern-json",
        "fixed-json",
        "pattern-curves-int",
        "pattern-pair-short",
        "fixed-orders-list",
        "check-genus-negative",
        "min-genus-budget-negative",
        "min-genus-node-cap-negative",
        "check-threads-zero",
        "enumerate-limit-negative",
        "chains-seq-empty",
        "chains-seq-empty-item",
        "lattice-subset-empty",
        "pattern-and-builtin",
        "fixed-and-fixed-builtin",
        "subset-and-non-extremal",
        "fixed-duplicate-crossing",
        "fixed-duplicate-crossing-below-bound",
        "fixed-wrong-partner",
        "fixed-wrong-partner-below-bound",
        "fixed-repeated-key",
        "pattern-repeated-key",
        "pattern-curves-string",
        "pattern-pair-string",
        "fixed-order-string",
        "pattern-label-number",
        "fixed-bit-float",
        "fixed-bit-string",
        "fixed-bit-bool",
        "fixed-bit-label-list",
        "fixed-bit-label-number",
        "fixed-order-label-list",
        "pattern-directory",
        "fixed-directory",
        "witness-out-directory",
        "witness-out-directory-not-realizable",
        "witness-out-directory-over-budget",
        "fixed-empty",
        "pattern-empty-and-builtin",
        "fixed-empty-and-fixed-builtin",
        "rep-seed-empty",
        "gamma-output-empty",
        "witness-out-empty",
        "pattern-duplicate-pair",
        "pattern-not-utf8",
        "fixed-not-utf8",
    ],
)
def test_malformed_input_exit_codes(tmp_path, capsys, argv, file_text, expected):
    f = tmp_path / "input.json"
    if isinstance(file_text, bytes):
        f.write_bytes(file_text)
    elif file_text is not None:
        f.write_text(file_text)
    argv = (a.replace("{file}", str(f)).replace("{dir}", str(tmp_path)) for a in argv)
    code, data = run_json(capsys, *argv)
    assert code == expected, data


def readme_commands():
    """Every `twistlat ...` line in README's fenced code blocks, comments
    stripped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines, fenced = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("twistlat "):
            lines.append(line.split("#", 1)[0].strip())
    return lines


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands
    parser = _build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
