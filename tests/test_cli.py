import json

from twistlat.bitgraph import graph_from_json
from twistlat.cli import main
from twistlat.patterns import pattern_from_json, pattern_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


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
    g = graph_from_json(data["export"])
    assert len(g.edges) == 19


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
    code, data = run_json(capsys, "rep", "check-relations", "--k", "3", "--sign", "both")
    assert code == 0 and data["ok"] is True


def test_rep_qform(capsys):
    code, data = run_json(capsys, "rep", "qform", "--k", "4")
    assert code == 0
    assert data["identity_ok"] and data["invariant_ok"]
    assert data["values_on_classes"] == [1] * 16


def test_rep_parity(capsys):
    code, data = run_json(capsys, "rep", "parity")
    assert code == 0
    assert data["nonzero"] is True and data["parity"] == 1


def test_rep_irreducible_single_seed(capsys):
    code, data = run_json(capsys, "rep", "irreducible", "--seed", "0001")
    assert code == 0
    assert data["closure_dims"] == {"0001": 10}


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
    assert pattern_to_json(p) == pattern_to_json(pattern_from_json(pattern_to_json(p)))


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


def test_cache_dir_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TWISTLAT_CACHE_DIR", str(tmp_path))
    code, _ = run_json(
        capsys, "realize", "min-genus", "--builtin", "chain7", "--budget", "5"
    )
    assert code == 0
    files = list(tmp_path.glob("twistlat-*.json"))
    assert len(files) == 1
    # resuming through the same default path reproduces the result
    code, data = run_json(
        capsys,
        "realize",
        "min-genus",
        "--builtin",
        "chain7",
        "--budget",
        "5",
        "--resume",
    )
    assert code == 0 and data["genus"] == 3
