import csv
import hashlib
import io
import json

import pytest

from quandlelab import cli
from quandlelab.cli import main
from quandlelab.presentation import PresentationContext
from quandlelab.quandles import Quandle, dihedral


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_new_and_check_round_trip(tmp_path, capsys):
    path = tmp_path / "z10.json"
    code, out, _ = run(capsys, "new", "--kind", "dihedral", "--n", "10", "-o", str(path))
    assert code == 0
    Q = Quandle.from_json(path.read_text())
    assert Q == dihedral(10)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "quandle: True" in out


def test_check_rejects_broken_table(tmp_path, capsys):
    bad = {"order": 3, "table": [[1, 1, 1], [0, 0, 0], [2, 2, 2]], "label": ""}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1


def test_info(tmp_path, capsys):
    path = tmp_path / "z10.json"
    run(capsys, "new", "--kind", "dihedral", "--n", "10", "-o", str(path))
    code, out, _ = run(capsys, "--json", "info", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["inner_order"] == 10
    assert data["inner_dihedral"] == "D_5"
    assert data["orbits"] == [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]
    assert data["cyclic_type"] is False


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "new", "--kind", "dihedral", "--n", "3", "-o", str(a))
    run(capsys, "new", "--kind", "alexander", "--q", "3", "--alpha-log", "1", "-o", str(b))
    code, out, _ = run(capsys, "--json", "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_rep_decompose_z10(tmp_path, capsys):
    path = tmp_path / "z10.json"
    run(capsys, "new", "--kind", "dihedral", "--n", "10", "-o", str(path))
    code, out, _ = run(capsys, "rep", "decompose", str(path))
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("dim")]
    assert len(lines) == 6
    dims = sorted(int(l.split()[0]) for l in lines)
    assert dims == [1, 1, 2, 2, 2, 2]


def test_rep_decompose_z11_csv(tmp_path, capsys):
    path = tmp_path / "z11.json"
    run(capsys, "new", "--kind", "dihedral", "--n", "11", "-o", str(path))
    code, out, _ = run(capsys, "rep", "decompose", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert sorted(int(r["dim"]) for r in rows) == [1, 2, 2, 2, 2, 2]


def test_rep_decompose_closed_form_agrees(tmp_path, capsys):
    path = tmp_path / "z12.json"
    run(capsys, "new", "--kind", "dihedral", "--n", "12", "-o", str(path))
    code, gen_out, _ = run(capsys, "rep", "decompose", str(path), "--format", "csv")
    code2, cf_out, _ = run(capsys, "rep", "decompose", str(path), "--closed-form",
                           "--format", "csv")
    assert code == code2 == 0
    labels = sorted(r["label"] for r in csv.DictReader(io.StringIO(gen_out)))
    labels_cf = sorted(r["label"] for r in csv.DictReader(io.StringIO(cf_out)))
    assert labels == labels_cf


def test_rep_decompose_closed_form_needs_dihedral(tmp_path, capsys):
    path = tmp_path / "t4.json"
    run(capsys, "new", "--kind", "trivial", "--n", "4", "-o", str(path))
    code, _, err = run(capsys, "rep", "decompose", str(path), "--closed-form")
    assert code == 2
    assert "dihedral" in err


def test_decompose_deterministic_bytes(tmp_path, capsys):
    path = tmp_path / "z12.json"
    run(capsys, "new", "--kind", "dihedral", "--n", "12", "-o", str(path))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--seed", "0", "rep", "decompose", str(path),
                           "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_rep_decompose_matrices_export(tmp_path, capsys):
    path = tmp_path / "z6.json"
    run(capsys, "new", "--kind", "dihedral", "--n", "6", "-o", str(path))
    code, out, _ = run(capsys, "rep", "decompose", str(path), "--matrices")
    assert code == 0
    rows = json.loads(out)
    assert all("basis" in r for r in rows)
    entry = rows[0]["basis"][0][0]
    assert len(entry) == 2  # [re, im]
    total = sum(len(r["basis"][0]) for r in rows)
    assert total == 6


def test_classify_cyclic(capsys):
    code, out, _ = run(capsys, "classify-cyclic", "--q", "125")
    assert code == 0
    assert "20 classes" in out
    code, out, _ = run(capsys, "--json", "classify-cyclic", "--q", "5")
    data = json.loads(out)
    assert data["count"] == 2
    assert len(data["classes"]) == 2
    assert all(len(c["member_logs"]) == 1 for c in data["classes"])


def test_classify_cyclic_verified(capsys):
    code, out, _ = run(capsys, "--json", "classify-cyclic", "--q", "9", "--verify-iso")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_present_classify_alias(capsys):
    code, out, _ = run(capsys, "--json", "present", "classify", "--q", "4")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_present_normalize(capsys):
    code, out, _ = run(capsys, "present", "normalize", "--q", "4",
                       "--alpha-log", "1", "x*y*x")
    assert code == 0
    assert out.strip() == "y"
    code, out, _ = run(capsys, "present", "normalize", "--q", "5",
                       "--alpha-log", "1", "x*y")
    assert out.strip() == "x*y"


def test_present_normalize_alpha_poly(capsys):
    code, out, _ = run(capsys, "present", "normalize", "--q", "5",
                       "--alpha-poly", "2", "x*y*x")
    assert code == 0


def test_present_normalize_syntax_error(capsys):
    code, _, err = run(capsys, "present", "normalize", "--q", "4", "x*(y*x)")
    assert code == 2
    assert "position" in err


def test_present_verify(capsys):
    code, out, _ = run(capsys, "--json", "present", "verify", "--q", "5",
                       "--alpha-log", "1", "--max-len", "4")
    assert code == 0
    assert json.loads(out)["images"] == 5


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "--json", "verify", "appendix", "--qmax", "13")
    assert code == 0
    rows = json.loads(out)
    assert all(r["no_solutions"] or r["q"] == 4 for r in rows)
    odd = [r for r in rows if r["q"] % 2]
    assert all(r["fixed_point"] is not None for r in odd)


@pytest.mark.parametrize("qmax,md5", [(256, "0993f58e1c12c42c4ba11b6fb04c6af0"),
                                      (512, "66b11c47667622053f56981a5fe1d0a3")])
def test_verify_appendix_output_bytes(capsys, qmax, md5):
    """The JSON rows are byte-identical to those of the per-alpha loop
    that built one PresentationContext and one Fraction reduction per
    (q, alpha)."""
    code, out, _ = run(capsys, "--json", "verify", "appendix", "--qmax", str(qmax))
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_verify_appendix_builds_no_presentation_context(capsys, monkeypatch):
    """The involutions come from one pairing table per field."""
    builds = []
    real = PresentationContext.__init__

    def counting(self, *args):
        builds.append(args)
        real(self, *args)

    monkeypatch.setattr(PresentationContext, "__init__", counting)
    code, _, _ = run(capsys, "--json", "verify", "appendix", "--qmax", "64")
    assert code == 0
    assert builds == []


@pytest.mark.parametrize("q,calls", [(16, 8), (125, 0)])
def test_verify_iso_builds_one_quandle_per_alpha(capsys, monkeypatch, q, calls):
    """The isomorphism search (q <= 16 only) builds one Alexander quandle
    per primitive element, not two per pair."""
    built = []
    real = cli.alexander
    monkeypatch.setattr(cli, "alexander", lambda F, a: built.append(a) or real(F, a))
    code, out, _ = run(capsys, "--json", "classify-cyclic", "--q", str(q), "--verify-iso")
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert len(built) == calls


def test_demo_maschke(capsys):
    code, out, _ = run(capsys, "demo", "maschke", "--n", "3")
    assert code == 0
    assert "criterion holds" in out
    assert "completely reducible: False" in out


def test_demo_maschke_custom_matrix(capsys):
    code, out, _ = run(capsys, "--json", "demo", "maschke", "--n", "2",
                       "--b", "[[1,0],[0,2]]")
    assert code == 0
    data = json.loads(out)
    assert data["criterion_holds"] is False
    assert data["completely_reducible"] is True


def test_demo_s3(capsys):
    code, out, _ = run(capsys, "demo", "s3-hom")
    assert code == 0
    assert "36 pairs" in out


def test_demo_rigidity(capsys):
    code, out, _ = run(capsys, "--json", "demo", "rigidity", "--q", "5",
                       "--alpha-log", "1", "--restarts", "10")
    assert code == 0
    assert json.loads(out)["counterexample"] is False


def test_new_conj_s3(tmp_path, capsys):
    path = tmp_path / "conj.json"
    code, _, _ = run(capsys, "new", "--kind", "conj", "--group", "s3", "-o", str(path))
    assert code == 0
    Q = Quandle.from_json(path.read_text())
    assert Q.order == 6


def test_new_core_cyclic(tmp_path, capsys):
    path = tmp_path / "core.json"
    code, _, _ = run(capsys, "new", "--kind", "core", "--group", "cyclic:5",
                     "-o", str(path))
    assert code == 0
    assert Quandle.from_json(path.read_text()) == dihedral(5)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rep"])
    assert exc.value.code == 2


def test_seed_env_var(monkeypatch):
    from quandlelab.cli import build_parser

    monkeypatch.setenv("QUANDLE_LAB_SEED", "17")
    args = build_parser().parse_args(["demo", "s3-hom"])
    assert args.seed == 17
