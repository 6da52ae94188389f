"""Shipping criteria, one test per criterion.

Each test delegates to the verification battery (the same code the CLI
``verify`` subcommand runs) and prints the machine-readable line
``ID status measured threshold`` so a ``pytest -v -s`` run doubles as the
acceptance report.
"""

from viscostring import verification


def _run(cid):
    result = verification.CRITERIA[cid]()
    print(result.line(), "--", result.detail)
    assert result.passed, f"{result.line()} :: {result.detail}"
    return result


def test_a1_resolvent_analytic_case():
    _run("A1")


def test_a2_forward_degenerate_exactness():
    _run("A2")


def test_a3_forward_oracle_equivalence():
    _run("A3")


def test_a4_connecting_identity_case():
    _run("A4")


def test_a5_connecting_oracle_equivalence():
    _run("A5")


def test_a6_steering_closed_form():
    _run("A6")


def test_a7_end_to_end_reconstruction():
    _run("A7")


def test_a8_invariant_suites():
    result = _run("A8")
    for sub in result.sub:
        assert sub["ratio"] <= 1.0, f"invariant violated: {sub}"


def test_a9_memory_end_to_end_reconstruction():
    _run("A9")
