import io
import json
import sys

import pytest

from conet.cli import main
from conet.cubics import hesse_net
from conet.forms import parse_form
from conet.spaces import LinearSystem


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def hesse_file(tmp_path):
    path = tmp_path / "hesse_lambda1.json"
    path.write_text(json.dumps(hesse_net(1).to_json()))
    return str(path)


def test_classify_net(hesse_file, capsys):
    code, out = run_cli(["classify", "net", "--file", hesse_file, "--seed", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["orbit"] == "8b"
    assert data["gamma"] == "Smooth"
    assert "key" in data


def test_determinism(hesse_file, capsys):
    argv = ["classify", "net", "--file", hesse_file, "--seed", "0"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_classify_pencil(tmp_path, capsys):
    path = tmp_path / "pencil.json"
    sys_ = LinearSystem([parse_form("X^2-Z^2"), parse_form("Y^2-Z^2")])
    path.write_text(json.dumps(sys_.to_json()))
    code, out = run_cli(["classify", "pencil", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"orbit": "a"}


def test_classify_cubic(tmp_path, capsys):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(parse_form("X*Y*Z").to_json()))
    code, out = run_cli(["classify", "cubic", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["kind"] == "Triangle"


def test_two_dimensional_input_is_malformed(tmp_path, capsys):
    path = tmp_path / "twodim.json"
    sys_ = LinearSystem([parse_form("X^2"), parse_form("X*Y")])
    path.write_text(json.dumps(sys_.to_json()))
    code, out = run_cli(["classify", "net", "--file", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "NotThreeDimensional"


def test_dual_of_cubic_system_is_malformed(tmp_path, capsys):
    path = tmp_path / "cubics.json"
    sys_ = LinearSystem([parse_form("X^3"), parse_form("Y^3"), parse_form("Z^3")])
    path.write_text(json.dumps(sys_.to_json()))
    code, out = run_cli(["dual", "net", "--file", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "InvalidInput"


def test_mixed_degree_system_is_malformed(tmp_path, capsys):
    # LinearSystem refuses mixed degrees, so the JSON is written by hand
    path = tmp_path / "mixed.json"
    forms = [parse_form("X^2").to_json(), parse_form("Y^3").to_json()]
    path.write_text(json.dumps({"degree": 2, "forms": forms}))
    code, out = run_cli(["dual", "net", "--file", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "InvalidInput"


def test_missing_file(capsys):
    code, out = run_cli(["classify", "net", "--file", "/nonexistent.json"], capsys)
    assert code == 3


def test_bad_arguments(capsys):
    assert main(["classify", "everything"]) == 3


def test_gamma_and_dual(hesse_file, capsys):
    code, out = run_cli(["gamma", "net", "--file", hesse_file], capsys)
    assert code == 0
    assert json.loads(out)["degree"] == 3
    code, out = run_cli(["dual", "net", "--file", hesse_file], capsys)
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_preimage(hesse_file, capsys):
    code, out = run_cli(["preimage", "net", "--file", hesse_file], capsys)
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_hessian_and_apolar(tmp_path, capsys):
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps(parse_form("X^3+Y^3+Z^3").to_json()))
    code, out = run_cli(["hessian", "cubic", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["degree"] == 3
    code, out = run_cli(["apolar", "cubic", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["counts"] == {"2": 3, "3": 2}


def test_verify_smoothing(capsys):
    code, out = run_cli(["verify", "smoothing", "--lambda", "1", "--t", "1"], capsys)
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["clauses"])


def test_verify_smoothing_needs_params(capsys):
    code, out = run_cli(["verify", "smoothing"], capsys)
    assert code == 3


def test_verify_onr2(capsys):
    code, out = run_cli(
        ["verify", "onr2", "--r", "4", "--lambdas", "2", "--t", "1"], capsys
    )
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["clauses"])


def test_verify_onr2_bad_lambdas(capsys):
    code, out = run_cli(
        ["verify", "onr2", "--r", "5", "--lambdas", "1,1", "--t", "1"], capsys
    )
    assert code == 3


def test_verify_onr2_r_above_bound(capsys):
    code, out = run_cli(
        ["verify", "onr2", "--r", "8", "--lambdas", "2,3,-1,5,7", "--t", "1"], capsys
    )
    assert code == 3
    assert json.loads(out)["error"] == "InvalidInput"
