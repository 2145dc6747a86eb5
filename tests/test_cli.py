import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conet
from conet.cli import main
from conet.cubics import hesse_net
from conet.forms import parse_form
from conet.golden import net_corpus, pencil_corpus
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
    code, out = run_cli(["classify", "net", "--file", hesse_file], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["orbit"] == "8b"
    assert data["gamma"] == "Smooth"
    assert "key" in data


def test_determinism(hesse_file, capsys):
    argv = ["classify", "net", "--file", hesse_file]
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


def test_seed_is_an_unknown_flag(hesse_file, capsys):
    # no command draws random numbers, so there is no seed to set
    code, out = run_cli(["classify", "net", "--file", hesse_file, "--seed", "7"], capsys)
    assert code == 3
    assert out == ""


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


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["smoothing", "--lambda", "2+w", "--t", "-1/3"], ["smoothing", "--lambda", "2+w", "--t=-1/3"]),
        (["smoothing", "--lambda", "-1/2", "--t", "2"], ["smoothing", "--lambda=-1/2", "--t", "2"]),
        (["onr2", "--r", "4", "--lambdas", "-1", "--t", "-w"], ["onr2", "--r", "4", "--lambdas=-1", "--t=-w"]),
    ],
)
def test_negative_scalar_after_a_space(capsys, spaced, joined):
    code, out = run_cli(["verify", *spaced], capsys)
    assert (code, out) == run_cli(["verify", *joined], capsys)
    assert code == 0 and json.loads(out)["pass"] is True


CLI_PROBE = """
import contextlib, io, json, resource, sys, time
# an address-space cap turns a runaway allocation into a quick MemoryError
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from conet.cli import main
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
seconds = time.perf_counter() - start
errors = [json.loads(line).get("error") for line in out.getvalue().splitlines()]
print(json.dumps({"codes": codes, "errors": errors, "seconds": seconds, "sympy": "sympy" in sys.modules}))
"""


def run_fresh(argvs):
    """Run cli.main on each argument list in a fresh interpreter; return the
    exit codes, the error names, the seconds taken and whether sympy was
    imported."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(conet.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, json.dumps(argvs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_commands_do_not_import_sympy(tmp_path):
    argvs = []
    for label, net in net_corpus().items():
        path = tmp_path / f"net_{label}.json"
        path.write_text(json.dumps(net.to_json()))
        argvs += [[verb, "net", "--file", str(path)] for verb in ("classify", "dual", "gamma", "preimage")]
    for label, pencil in pencil_corpus().items():
        path = tmp_path / f"pencil_{label}.json"
        path.write_text(json.dumps(pencil.to_json()))
        argvs.append(["classify", "pencil", "--file", str(path)])
    for i, text in enumerate(["X^3+Y^3+Z^3", "Y^2*Z-X^3-X^2*Z", "X*Y*Z"]):
        path = tmp_path / f"cubic_{i}.json"
        path.write_text(json.dumps(parse_form(text).to_json()))
        argvs.append(["classify", "cubic", "--file", str(path)])
    result = run_fresh(argvs)
    assert result["codes"] == [0] * len(argvs)
    assert result["sympy"] is False


def test_stated_degree_above_three_is_refused_early(tmp_path):
    degree = 10**6
    forms = [{"degree": degree, "coeffs": {f"{degree},0,0": "1"}}] + [{"degree": degree, "coeffs": {}}] * 2
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"degree": degree, "forms": forms}))
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"degree": degree, "forms": forms[:1]}))
    argvs = [[verb, "net", "--file", str(path)] for verb in ("classify", "dual", "gamma", "preimage")]
    argvs += [["classify", "pencil", "--file", str(path)], ["classify", "cubic", "--file", str(single)]]
    result = run_fresh(argvs)
    assert result["codes"] == [3] * len(argvs)
    assert result["errors"] == ["InvalidInput"] * len(argvs)
    assert result["seconds"] < 1.0


@pytest.mark.parametrize("subject", ["classify", "hessian", "apolar"])
def test_non_string_coefficients_are_malformed(tmp_path, capsys, subject):
    number = {"degree": 3, "coeffs": {"3,0,0": 5}}
    listed = {"degree": 3, "coeffs": ["3,0,0", "1"]}
    for data in (number, listed, {"degree": 3, "forms": [number]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out = run_cli([subject, "cubic", "--file", str(path)], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "InvalidInput"


def test_zero_cubic_apolar_is_malformed(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"degree": 3, "coeffs": {}}))
    code, out = run_cli(["apolar", "cubic", "--file", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "ZeroForm"


def test_verify_tables_reports_pass(capsys):
    code, out = run_cli(["verify", "tables"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert all(c["pass"] for c in data["clauses"])


FILE_COMMANDS = [
    ("classify", "net"),
    ("classify", "pencil"),
    ("classify", "cubic"),
    ("dual", "net"),
    ("gamma", "net"),
    ("preimage", "net"),
    ("hessian", "cubic"),
    ("apolar", "cubic"),
]
JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(width=16),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=3),
    st.just({}),
)


@st.composite
def file_commands(draw):
    """A file-taking command and its input: the forms it expects (three
    conics for a net, two for a pencil, one cubic), with at most one field
    replaced by a JSON value of another type or removed."""
    command = draw(st.sampled_from(FILE_COMMANDS))
    degree, count = {"net": (2, 3), "pencil": (2, 2), "cubic": (3, 1)}[command[1]]
    keys = [f"{i},{j},{degree - i - j}" for i in range(degree + 1) for j in range(degree + 1 - i)]
    scalars = st.sampled_from(["1", "-1", "2", "-3", "1/2", "w", "1+w", "-w", "0"])
    forms = [
        {"degree": degree, "coeffs": draw(st.dictionaries(st.sampled_from(keys), scalars, max_size=7))}
        for _ in range(count)
    ]
    data = forms[0] if count == 1 and draw(st.booleans()) else {"degree": degree, "forms": forms}
    target = draw(st.sampled_from(forms + [data]))
    field = draw(st.sampled_from([None, "degree", "coeffs", "vars", "forms", "value", "key"]))
    if field == "value" and target.get("coeffs"):
        target["coeffs"][draw(st.sampled_from(sorted(target["coeffs"])))] = draw(JSON_JUNK)
    elif field == "key" and "coeffs" in target:
        target["coeffs"][draw(st.text(max_size=6))] = "1"
    elif field in ("degree", "coeffs", "vars", "forms"):
        if draw(st.booleans()):
            target.pop(field, None)
        else:
            target[field] = draw(JSON_JUNK)
    return command, data


@settings(max_examples=60, deadline=None, derandomize=True)
@given(file_commands())
def test_file_commands_print_one_json_line(case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*command, "--file", path])
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])
    assert 0 <= code <= 3
