"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line.  Tolerances are exact equalities throughout - the engine has no
floating point, so "within tolerance" always means "on the nose"."""

import json
from pathlib import Path

from sixff.suite import (
    CHECKS, SuiteConfig, _check_rng, check_base_change_and_projection,
    check_corr_duals, check_descent, check_double_cosets, check_hecke,
    check_kernel_category, check_kunneth_and_sections, check_mates,
    check_setup_cross, check_suave_prim,
)

CONFIG = SuiteConfig(seed=0, probes=2)
# `sixff run --format json --seed 0 --probes 2`, pinned
PINNED = {c["id"]: c for c in json.loads(
    (Path(__file__).resolve().parent / "run_outputs" / "seed0_probes2.json")
    .read_text())["checks"]}


def _report(name, fn):
    """Run one check on the random stream `sixff run` gives it, and compare
    its status and witness with the pinned report."""
    check_id = next(cid for cid, _, _, check in CHECKS if check is fn)
    status, witness = fn(CONFIG, _check_rng(CONFIG, check_id))
    line = "[%s] %s: %s" % ("PASS" if status == "pass" else "FAIL",
                            name, witness)
    print(line)
    assert status == "pass", witness
    assert (status, witness) == (PINNED[check_id]["status"],
                                 PINNED[check_id]["witness"])


def test_criterion_1_setup_equivalence():
    """Diagonal-in-E and right-cancellativity agree on every subset E of
    three fixed small categories (exhaustive, exact)."""
    _report("1 geometric-setup equivalence", check_setup_cross)


def test_criterion_2_corr_duals():
    """Every object of (FinSet<=3, all) is self-dual with exact triangle
    certificates."""
    _report("2 correspondence duals", check_corr_duals)


def test_criterion_3_double_cosets():
    """Components and automorphism orders of */H x_{*/G} */K match the
    brute-force double cosets for every subgroup pair of S3, S4, D4, Q8
    up to conjugacy.  They are read from the arrows out of each component
    representative, by the product's one arrow rule
    (`RelProduct.arrows_out`), without building the product's groupoid."""
    _report("3 double cosets vs fiber products", check_double_cosets)


def test_criterion_4_six_functor_axioms():
    """Base-change and projection-formula certificates invertible on >= 200
    randomized (square, sheaf) instances over Q and F5."""
    _report("4 base change + projection formula",
            check_base_change_and_projection)


def test_criterion_5_kernel_category():
    """Associativity/unit certificates on >= 100 randomized kernel triples;
    Psi∘Phi agrees with the direct six-functor composite."""
    _report("5 kernel 2-category", check_kernel_category)


def test_criterion_6_suave_prim():
    """suave/prim certificates with closed-form duals on the preset
    battery; double duality returns; etale and proper certificates pass."""
    _report("6 suave/prim duality", check_suave_prim)


def test_criterion_7_descent():
    """Descent comparison is an equivalence for {1,2} over the point,
    * over */C2, * over */S3, and a randomized surjection, over Q."""
    _report("7 descent comparison", check_descent)


def test_criterion_8_mates():
    """rho and lambda are mutually inverse, exhaustively, on a strict
    2-category with 3 objects and 3 cells per hom set."""
    _report("8 mate bijection", check_mates)


def test_criterion_9_hecke():
    """dim H(S3,C2,1) = 2 with T_w^2 = 2T_e + T_w; models agree; iota is an
    involutive anti-automorphism; prim duality induces iota."""
    _report("9 Hecke algebra", check_hecke)


def test_criterion_10_kunneth_and_sections():
    """Compactly-supported sections are multiplicative on 20 random pairs;
    unit sections of deloopings are 1-dimensional; pyramid section
    symmetry holds to n = 5."""
    _report("10 Kunneth and sections", check_kunneth_and_sections)
