"""Command-line interface.

Usage: conet VERB SUBJECT [options].  Output is JSON with sorted keys on
standard output.  Exit codes: 0 success, 1 classification error, 2
verification failure, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify_net, classify_pencil, verify_family
from .cubics import (
    apolar_generators,
    classify_cubic,
    hessian_cubic,
    jacobian_net,
    jacobian_preimage,
)
from .deform import _clause, _report, verify_deformation_1r2, verify_smoothing_133
from .errors import (
    DualityMismatch,
    FamilyMismatch,
    GenericityFailure,
    InconsistentConfiguration,
    Indeterminate,
    InvalidInput,
    InvalidParameters,
    NotThreeDimensional,
    UnclassifiedCubic,
    VerificationFailure,
    ZeroForm,
)
from .forms import HForm
from .golden import (
    BASE_POINT_FREE,
    DISCRIMINANT_TABLE,
    ORBIT_DIMENSIONS,
    POLAR_TABLE,
    all_families,
    discriminant_8b,
    discriminant_presentation,
    family_samples,
    net_corpus,
    pencil_corpus,
    same_up_to_permutation,
)
from .forms import parse_form
from .scalar import Scalar, parse_scalar
from .spaces import LinearSystem, discriminant_cubic, forms_from_json, orthogonal_complement

COMMANDS = {
    ("classify", "net"),
    ("classify", "pencil"),
    ("classify", "cubic"),
    ("dual", "net"),
    ("gamma", "net"),
    ("preimage", "net"),
    ("hessian", "cubic"),
    ("apolar", "cubic"),
    ("verify", "tables"),
    ("verify", "specializations"),
    ("verify", "smoothing"),
    ("verify", "onr2"),
}

EXIT_OK = 0
EXIT_CLASSIFY = 1
EXIT_VERIFY = 2
EXIT_INPUT = 3

# Largest --r for verify onr2.  A cold run takes 2 to 2.5x longer per step
# of r: on a 2-CPU machine r=7 took 0.71 s and r=8 took 1.75 s.
MAX_ONR2_R = 7

# Every command works on conics or cubics.  A higher stated degree is refused
# before LinearSystem builds its monomial order, whose size grows with the
# square of the degree.
MAX_DEGREE = 3

# Options whose value may start with "-" (a negative scalar such as -1/3),
# which argparse would otherwise read as an option.
SCALAR_OPTIONS = ("--lambda", "--t", "--lambdas")


def _parser():
    p = argparse.ArgumentParser(prog="conet", description=__doc__)
    p.add_argument("verb", choices=sorted({v for v, _ in COMMANDS}))
    p.add_argument(
        "subject", choices=sorted({s for _, s in COMMANDS})
    )
    p.add_argument("--file", help="input JSON file (a form or a linear system)")
    p.add_argument("--lambda", dest="lam", default=None, help="scalar parameter")
    p.add_argument("--t", default=None, help="deformation parameter (scalar)")
    p.add_argument(
        "--r", type=int, default=4, help=f"embedding dimension for onr2, 4 to {MAX_ONR2_R}"
    )
    p.add_argument("--lambdas", default=None, help="comma-separated scalars")
    return p


def _load_json(path):
    if path is None:
        raise InvalidInput("--file is required for this command")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _system(data):
    forms = forms_from_json(data)
    degree = max(f.degree for f in forms)
    if degree > MAX_DEGREE:
        raise InvalidInput(f"degree {degree} is above {MAX_DEGREE}: commands take conics or cubics")
    return LinearSystem(forms)


def _load_system(path):
    return _system(_load_json(path))


def _load_cubic(path):
    data = _load_json(path)
    if isinstance(data, dict) and "forms" in data:
        system = _system(data)
        if len(system.forms) != 1:
            raise InvalidInput("expected a single cubic form")
        form = system.forms[0]
    else:
        form = HForm.from_json(data)
    if form.degree != 3:
        raise InvalidInput(f"expected a cubic, got degree {form.degree}")
    return form


def _scalar(text, name):
    if text is None:
        raise InvalidInput(f"--{name} is required for this command")
    try:
        return parse_scalar(text)
    except (InvalidInput, ValueError) as exc:
        raise InvalidInput(f"bad --{name}: {exc}") from exc


def verify_tables():
    """Re-derive every golden table from scratch and compare."""
    clauses = []
    nets = net_corpus()
    reports = {label: classify_net(net) for label, net in nets.items()}
    bad = [l for l, r in reports.items() if r.orbit != l]
    clauses.append(_clause("corpus-labels", not bad, f"mislabelled: {bad}"))
    bad = [l for l, r in reports.items() if r.orbit_dim != ORBIT_DIMENSIONS[l]]
    clauses.append(_clause("corpus-orbit-dimensions", not bad, f"wrong: {bad}"))
    free = {l for l, r in reports.items() if r.scheme_length == 0}
    clauses.append(
        _clause("base-point-free-set", free == BASE_POINT_FREE, f"got {sorted(free)}")
    )
    bad = []
    for label, expect in DISCRIMINANT_TABLE.items():
        gamma = discriminant_cubic(discriminant_presentation(label))
        target = parse_form(expect, vars=("A", "B", "C"))
        if not same_up_to_permutation(gamma, target):
            bad.append(label)
    gamma = discriminant_cubic(nets["8b"])
    if not same_up_to_permutation(gamma, discriminant_8b(Scalar(1))):
        bad.append("8b")
    clauses.append(_clause("discriminant-table", not bad, f"mismatch: {bad}"))
    pencils = pencil_corpus()
    bad = [l for l, p in pencils.items() if classify_pencil(p) != l]
    clauses.append(_clause("pencil-labels", not bad, f"mislabelled: {bad}"))
    bad = []
    for text, expect in POLAR_TABLE:
        net = jacobian_net(parse_form(text))
        got = classify_net(net).orbit
        if got != expect:
            bad.append(f"{text}: {got} != {expect}")
    clauses.append(_clause("polar-table", not bad, "; ".join(bad)))
    return _report(clauses)


def verify_specializations():
    families = []
    for spec in all_families():
        families.append(verify_family(spec, family_samples(spec)))
    return {
        "families": families,
        "pass": all(f["pass"] for f in families),
    }


def _run(args):
    key = (args.verb, args.subject)
    if key not in COMMANDS:
        raise InvalidInput(f"unsupported command: {args.verb} {args.subject}")
    if key == ("classify", "net"):
        return classify_net(_load_system(args.file)).to_json(), EXIT_OK
    if key == ("classify", "pencil"):
        return {"orbit": classify_pencil(_load_system(args.file))}, EXIT_OK
    if key == ("classify", "cubic"):
        return classify_cubic(_load_cubic(args.file)).to_json(), EXIT_OK
    if key == ("dual", "net"):
        system = _load_system(args.file)
        comp = orthogonal_complement(system)
        return comp.to_json(), EXIT_OK
    if key == ("gamma", "net"):
        return discriminant_cubic(_load_system(args.file)).to_json(), EXIT_OK
    if key == ("preimage", "net"):
        pre = jacobian_preimage(_load_system(args.file))
        out = pre.to_json()
        out["dimension"] = pre.dimension
        return out, EXIT_OK
    if key == ("hessian", "cubic"):
        return hessian_cubic(_load_cubic(args.file)).to_json(), EXIT_OK
    if key == ("apolar", "cubic"):
        counts = apolar_generators(_load_cubic(args.file))
        return {"counts": {str(d): n for d, n in sorted(counts.items())}}, EXIT_OK
    if key == ("verify", "tables"):
        report = verify_tables()
        return report, EXIT_OK if report["pass"] else EXIT_VERIFY
    if key == ("verify", "specializations"):
        report = verify_specializations()
        return report, EXIT_OK if report["pass"] else EXIT_VERIFY
    if key == ("verify", "smoothing"):
        lam = _scalar(args.lam, "lambda")
        t = _scalar(args.t, "t")
        report = verify_smoothing_133(lam, t)
        return report, EXIT_OK if report["pass"] else EXIT_VERIFY
    if key == ("verify", "onr2"):
        if args.r > MAX_ONR2_R:
            raise InvalidInput(f"--r {args.r} is above the supported maximum {MAX_ONR2_R}")
        if args.lambdas is None:
            raise InvalidInput("--lambdas is required for this command")
        lambdas = [_scalar(s, "lambdas") for s in args.lambdas.split(",")]
        t = _scalar(args.t, "t")
        report = verify_deformation_1r2(args.r, lambdas, t)
        return report, EXIT_OK if report["pass"] else EXIT_VERIFY
    raise AssertionError("unreachable")


def _attach_scalar_values(argv):
    """Write `--t -1/3` as `--t=-1/3`, which argparse reads as a value."""
    out = []
    for arg in argv:
        if out and out[-1] in SCALAR_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_scalar_values(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        payload, code = _run(args)
    except (InvalidInput, NotThreeDimensional, InvalidParameters, ZeroForm) as exc:
        payload, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_INPUT
    except (
        InconsistentConfiguration,
        UnclassifiedCubic,
        GenericityFailure,
        Indeterminate,
    ) as exc:
        payload, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_CLASSIFY
    except (VerificationFailure, FamilyMismatch, DualityMismatch) as exc:
        payload, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_VERIFY
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
