"""Acceptance suite: the check table of ``bsrig.selftest`` at full scale, one
test per criterion, each printing a PASS line with its measured runtime and
asserting the criterion's budget.

Run with  pytest tests/test_acceptance.py -v -s  to see the report lines.
"""

import random
import time

import pytest

from bsrig.selftest import CHECKS, FULL, title


def _accept(number: int) -> None:
    if not __debug__:
        pytest.fail("the checks are assert statements, which python -O removes; run without -O")
    check = CHECKS[number - 1]
    sizes = FULL[check]
    name = title(check, sizes)
    rng = random.Random(sizes.seed)
    start = time.perf_counter()
    try:
        check(rng, sizes)
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {name} ({elapsed:.2f}s)")
    assert elapsed < sizes.budget, f"criterion {number} beyond {sizes.budget}s budget"


def test_criterion_1_word_problem_soundness():
    _accept(1)


def test_criterion_2_hecke_profiles():
    _accept(2)


def test_criterion_3_index_value_coverage():
    _accept(3)


def test_criterion_4_self_inverse_fusion_bookkeeping():
    _accept(4)


def test_criterion_5_exchange_partners_brute_force():
    _accept(5)


def test_criterion_6_rigidity_matrix():
    _accept(6)


def test_criterion_7_isomorphism_criterion():
    _accept(7)


def test_criterion_8_tree_actions():
    _accept(8)


def test_criterion_9_quasi_centralizer_index_two():
    _accept(9)
