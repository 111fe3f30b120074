"""Command-line front end.

Exit codes are a contract scripts rely on:

  0  success
  1  malformed input (bad JSON, missing file, schema errors, bad values,
     command-line usage errors), or stdout closed before the output was written
  2  antisymmetry or Jacobi violation in the algebra definition
  3  no closed-form condition applies to the pair
  4  verification or fuzz failure

Machine output is printed to stdout (JSON, except the TSV series table of
``f --series``); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import closed_form, detect, families, oracle
from .algebra import (
    AntisymmetryViolation,
    IndexOutOfRange,
    JacobiViolation,
    LieElement,
    StructureConstants,
)
from .closed_form import (
    BchResult,
    NoClosedFormAvailable,
    bch_closed_form,
    closed_form_terms,
    f_scalar,
    f_series,
)
from .detect import CaseTag, classify_pair

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVALID_ALGEBRA = 2
EXIT_NO_CLOSED_FORM = 3
EXIT_VERIFY_FAILED = 4


class InputError(Exception):
    """Anything wrong with user-supplied files or values (exit code 1)."""


def _check_tolerance(tolerance: float) -> None:
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise InputError(f"--tolerance must be positive and finite, got {tolerance}")


def _check_degree(degree: int) -> None:
    if degree < 2:
        raise InputError(f"--degree must be >= 2, got {degree}")


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def load_algebra(spec: str) -> StructureConstants:
    """Resolve an algebra argument: a JSON file path, or a catalog name.

    Names are looked up first in $BCHKIT_CATALOG_DIR (as NAME.json files),
    then in the builtin catalog.
    """
    if os.path.exists(spec):
        data = _read_json(spec)
        return _algebra_from_data(data, spec)
    override = os.environ.get("BCHKIT_CATALOG_DIR")
    if override:
        candidate = os.path.join(override, spec + ".json")
        if os.path.exists(candidate):
            return _algebra_from_data(_read_json(candidate), candidate)
    try:
        return oracle.catalog_entry(spec).algebra
    except KeyError:
        raise InputError(f"{spec!r} is neither a file nor a catalog name")


def _algebra_from_data(data, source: str) -> StructureConstants:
    if not isinstance(data, dict) or "dim" not in data:
        raise InputError(f"{source}: expected an object with a 'dim' field")
    entries = data.get("f", [])
    if not isinstance(entries, list):
        raise InputError(f"{source}: 'f' must be a list of entries")
    try:
        for i, item in enumerate(entries):
            if not isinstance(item, dict):
                raise InputError(f"{source}: entry {i} of 'f' is not an object")
            for field in ("a", "b", "c", "v"):
                if field not in item:
                    raise InputError(f"{source}: entry {i} of 'f' has no field {field!r}")
        return StructureConstants.from_json_dict(data)
    except (AntisymmetryViolation, JacobiViolation, IndexOutOfRange):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{source}: {exc}")


def load_element(path: str, alg: StructureConstants) -> LieElement:
    data = _read_json(path)
    if not isinstance(data, dict) or "coords" not in data:
        raise InputError(f"{path}: expected an object with a 'coords' field")
    try:
        return alg.element(data["coords"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")


def load_rep(path: str) -> oracle.MatrixRep:
    data = _read_json(path)
    if not isinstance(data, dict) or "basis_images" not in data:
        raise InputError(f"{path}: missing field 'basis_images'")
    try:
        return oracle.MatrixRep.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def scalar_json(value):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    return float(value)


def coords_json(elem: LieElement):
    return [scalar_json(c) for c in elem.coords]


def classification_json(cls: detect.CaseClassification) -> dict:
    alg = cls.algebra
    fact = detect.factorize_rank_one(alg)
    nilp = alg.lower_central_series()[1]
    return {
        "tag": cls.tag.value,
        "u": scalar_json(cls.u),
        "v": scalar_json(cls.v),
        "derived_dim": alg.derived_subalgebra().dim,
        "derived_abelian": detect.is_derived_abelian(alg),
        "nilpotent": {"class": nilp.nil_class} if nilp.nilpotent else None,
        "rank_one": None if fact is None else {
            "omega": [[str(w) for w in row] for row in fact.omega],
            "n": [str(c) for c in fact.n.coords],
        },
        "S_dim": cls.s_closure.dim if cls.s_closure is not None else None,
    }


def result_json(res: BchResult) -> dict:
    out = {
        "z": coords_json(res.z),
        "method": res.method,
        "exact": res.exact,
        "residual_bound": res.residual_bound,
        "u": scalar_json(res.u),
        "v": scalar_json(res.v),
        "degree": res.degree,
    }
    if res.lines is not None:  # an operator form split into joint eigenlines
        out["lines"] = [{"u": scalar_json(u), "v": scalar_json(v)} for u, v in res.lines]
    return out


def _sup_diff(a: LieElement, b: LieElement) -> float:
    return max(abs(float(p) - float(q)) for p, q in zip(a.coords, b.coords))


def _emit(data, output: str):
    if output == "human":
        for key, value in data.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(data, sort_keys=True))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    alg = load_algebra(args.algebra)
    x = load_element(args.x, alg)
    y = load_element(args.y, alg)
    cls = classify_pair(alg, x, y)
    _emit(classification_json(cls), args.output)
    return EXIT_OK if cls.tag != CaseTag.NO_CLOSED_FORM else EXIT_NO_CLOSED_FORM


def cmd_bch(args) -> int:
    _check_tolerance(args.tolerance)
    if args.verify:
        _check_degree(args.degree)
    alg = load_algebra(args.algebra)
    x = load_element(args.x, alg)
    y = load_element(args.y, alg)
    cls = classify_pair(alg, x, y)
    if cls.tag == CaseTag.NO_CLOSED_FORM:
        print(json.dumps({"error": "NoClosedForm",
                          "hint": "use the 'oracle' command for a truncated series"}))
        return EXIT_NO_CLOSED_FORM
    res = bch_closed_form(alg, x, y, target_tolerance=args.tolerance,
                          classification=cls)
    payload = result_json(res)
    failure = None
    if args.verify:
        payload["verify"], failure = _verify(cls, res, args.degree, args.tolerance)
    _emit(payload, args.output)
    if failure is not None:
        print(f"verification failed: {failure}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _graded(cls: detect.CaseClassification, degree: int):
    """(Z_1 + ... + Z_degree, the least n <= degree with C_n != Z_n or None) for the
    pair of the certificate cls, from one expansion of the series."""
    series = oracle.bch_series_terms(cls.algebra, cls.x, cls.y, degree)
    closed = closed_form_terms(cls, degree)
    mismatch = next((n for n, (c, z) in enumerate(zip(closed, series), 1) if c != z), None)
    return oracle.series_sum(series), mismatch


def _verify(cls, res: BchResult, degree: int, tolerance: float):
    """The `verify` payload and why it fails, or None: C_n == Z_n exactly for
    n <= degree, and where C_n = 0 beyond the degree (an exact z whose parts
    end at res.degree + 2), |z - sum C_n| <= tolerance."""
    reference, mismatch = _graded(cls, degree)
    tail_bounded = res.exact and (res.degree or 0) + 2 <= degree
    diff = _sup_diff(res.z, reference)
    verify = {"degree": degree, "difference_sup_norm": diff, "graded_mismatch_degree": mismatch,
              "tail_bounded": tail_bounded, "tolerance": tolerance}
    if mismatch is not None:
        return verify, f"closed form and series differ at degree {mismatch}"
    if tail_bounded and diff > tolerance:
        return verify, f"|closed - exact| = {diff:.3e} > {tolerance:.1e}"
    return verify, None


def cmd_oracle(args) -> int:
    _check_degree(args.degree)
    alg = load_algebra(args.algebra)
    x = load_element(args.x, alg)
    y = load_element(args.y, alg)
    series = oracle.bch_integral_series(alg, x, y, args.degree)
    payload = {
        "degree": args.degree,
        "integral_series": coords_json(series),
        "matrix": None,
        "difference_sup_norm": None,
    }
    if args.rep:
        rep = load_rep(args.rep)
        rep.validate_against(alg)
        z_mat = oracle.matrix_bch(rep, x, y)
        payload["matrix"] = coords_json(z_mat)
        payload["difference_sup_norm"] = _sup_diff(series, z_mat)
    _emit(payload, args.output)
    return EXIT_OK


def cmd_f(args) -> int:
    if args.series is not None:
        table = f_series(args.series)
        for (i, j), c in sorted(table.coefficients.items()):
            print(f"{i}\t{j}\t{c}")
        return EXIT_OK
    if args.u is None or args.v is None:
        raise InputError("f requires --u and --v (or --series DEGREE)")
    value = f_scalar(args.u, args.v)
    _emit({"u": args.u, "v": args.v, "f": value}, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

_CLOSED_FORM_CATALOG = ("abelian3", "heisenberg", "affine", "uvc", "two_scale")
_FUZZ_FAMILIES = ("rank_one", "case1", "catalog")


def _fuzz_instance(rng: random.Random, family: str):
    sup = Fraction(1, 2)
    if family == "rank_one":
        dim = rng.randint(3, 6)
        alg = families.random_rank_one(rng, dim)
    elif family == "case1":
        dim = rng.randint(2, 6)
        alg, _, _ = families.random_case1(rng, dim)
    else:  # catalog
        # catalog tensors are fixed, so keep the coordinates smaller to stay
        # inside the degree-8 truncation window of the series oracle
        name = rng.choice(_CLOSED_FORM_CATALOG)
        alg = oracle.catalog_entry(name).algebra
        sup = Fraction(1, 4)
    x = families.random_element(rng, alg.dim, sup)
    y = families.random_element(rng, alg.dim, sup)
    return alg, x, y


def run_fuzz(seed: int, n: int, family_names, degree: int, tolerance: float,
             graded_every: int) -> dict:
    """Randomized closed-form-vs-oracle conformance; deterministic per seed.  Every
    graded_every-th instance also has its graded parts checked: C_n == Z_n, n <= D."""
    if n < 0:
        raise InputError(f"--n must be >= 0, got {n}")
    if graded_every < 1:
        raise InputError(f"--graded-every must be >= 1, got {graded_every}")
    _check_degree(degree)
    _check_tolerance(tolerance)
    if not tolerance / 10 > 0:  # the closed forms are asked for tolerance / 10
        raise InputError(f"--tolerance {tolerance} is too small: tolerance / 10 underflows to 0")
    if not family_names:
        raise InputError("--families names no family")
    for i, family in enumerate(family_names):
        if family not in _FUZZ_FAMILIES:
            raise InputError(f"unknown fuzz family {family!r}")
        if family in family_names[:i]:  # its report would overwrite the first
            raise InputError(f"fuzz family {family!r} named twice")
    rng = random.Random(seed)
    report = {
        "seed": seed, "n": n, "degree": degree, "tolerance": tolerance,
        "families": {}, "violations": [], "pass": True,
    }
    if n == 0:
        report["warning"] = "n = 0: vacuous run"
        return report

    def violation(family, alg, x, y, **measured):
        report["pass"] = False
        report["violations"].append({"family": family, "algebra": alg.to_json_dict(),
                                     "x": coords_json(x), "y": coords_json(y), **measured})

    for family in family_names:
        max_error = 0.0
        skipped = graded_checked = 0
        tags = dict.fromkeys((tag.value for tag in CaseTag), 0)
        for idx in range(n):
            alg, x, y = _fuzz_instance(rng, family)
            cls = classify_pair(alg, x, y)
            tags[cls.tag.value] += 1
            if cls.tag == CaseTag.NO_CLOSED_FORM:  # nothing to compare with the oracle
                skipped += 1
                continue
            res = bch_closed_form(alg, x, y, target_tolerance=tolerance / 10,
                                  classification=cls)
            mismatch = None
            if idx % graded_every == 0:  # one expansion serves both checks
                graded_checked += 1
                reference, mismatch = _graded(cls, degree)
            else:
                reference = oracle.bch_integral_series(alg, x, y, degree)
            err = _sup_diff(res.z, reference)
            max_error = max(max_error, err)
            if err > tolerance:
                violation(family, alg, x, y, error=err)
            if mismatch is not None:
                violation(family, alg, x, y, graded_mismatch_degree=mismatch)
        report["families"][family] = {
            "count": n - skipped,
            "skipped": skipped,
            "max_error": max_error,
            "graded_checked": graded_checked,
            "tags": tags,
        }
    return report


def cmd_fuzz(args) -> int:
    family_names = [f.strip() for f in args.families.split(",") if f.strip()]
    report = run_fuzz(args.seed, args.n, family_names, args.degree,
                      args.tolerance, args.graded_every)
    print(json.dumps(report, sort_keys=True))
    if "warning" in report:
        print(report["warning"], file=sys.stderr)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (malformed input): exit 2 means an invalid algebra."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bchkit",
        description="closed-form ln(exp(X) exp(Y)) on structure-constant Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True,
                       help="algebra JSON file or builtin catalog name")
        p.add_argument("--x", required=True, help="element JSON file")
        p.add_argument("--y", required=True, help="element JSON file")
        p.add_argument("--output", choices=["json", "human"], default="json")

    p_check = sub.add_parser("check", help="classify the pair against the case hierarchy")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_bch = sub.add_parser("bch", help="compute the composition by the best closed form")
    common(p_bch)
    p_bch.add_argument("--verify", action="store_true",
                       help="also compare against the truncated series oracle")
    p_bch.add_argument("--degree", type=int, default=8)
    p_bch.add_argument("--tolerance", type=float, default=1e-8)
    p_bch.set_defaults(func=cmd_bch)

    p_oracle = sub.add_parser("oracle", help="evaluate the ground-truth engines")
    common(p_oracle)
    p_oracle.add_argument("--degree", type=int, default=8)
    p_oracle.add_argument("--rep", help="matrix representation JSON file")
    p_oracle.set_defaults(func=cmd_oracle)

    p_f = sub.add_parser("f", help="evaluate f(u, v) or print its rational series")
    p_f.add_argument("--u", type=float)
    p_f.add_argument("--v", type=float)
    p_f.add_argument("--series", type=int, metavar="DEGREE",
                     help="print the exact coefficient table as TSV instead")
    p_f.add_argument("--output", choices=["json", "human"], default="json")
    p_f.set_defaults(func=cmd_f)

    p_fuzz = sub.add_parser("fuzz", help="randomized conformance against the oracle")
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--n", type=int, required=True)
    p_fuzz.add_argument("--families", default=",".join(_FUZZ_FAMILIES))
    p_fuzz.add_argument("--degree", type=int, default=8)
    p_fuzz.add_argument("--tolerance", type=float, default=1e-8)
    p_fuzz.add_argument("--graded-every", type=int, default=25, metavar="K",
                        help="check C_n = Z_n exactly for n <= D on every K-th instance")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout early shows here
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MALFORMED
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (AntisymmetryViolation, JacobiViolation, IndexOutOfRange) as exc:
        detail = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "indices"):
            detail["indices"] = list(exc.indices)
        if hasattr(exc, "residual"):
            detail["residual"] = str(exc.residual)
        print(json.dumps(detail, sort_keys=True), file=sys.stderr)
        return EXIT_INVALID_ALGEBRA
    except NoClosedFormAvailable:
        return EXIT_NO_CLOSED_FORM
    except (closed_form.NonConvergence, oracle.ExpansionResidualTooLarge,
            oracle.LogDomainError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (TypeError, ValueError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
