"""Acceptance suite: the check table of ``bsrig.selftest`` at full scale, one
test per row of ``CHECKS``, each printing a PASS line with its measured
runtime and asserting the criterion's budget.

Run with  pytest tests/test_acceptance.py -v -s  to see the report lines.
"""

import random
import time

import pytest

from bsrig.selftest import CHECKS, FULL, title

# The name each row's test has run under, as test_criterion_<k>_<name>; a
# row not named here runs under its check's own name.
_NAMES = {
    "_word_problem": "word_problem_soundness",
    "_profiles": "hecke_profiles",
    "_index_values": "index_value_coverage",
    "_self_inverse_fusion": "self_inverse_fusion_bookkeeping",
    "_exchange": "exchange_partners_brute_force",
    "_obstruction": "rigidity_matrix",
    "_isomorphism": "isomorphism_criterion",
    "_tree": "tree_actions",
    "_quasi_centralizer": "quasi_centralizer_index_two",
}


def _accept(number: int, check) -> None:
    if not __debug__:
        pytest.fail("the checks are assert statements, which python -O removes; run without -O")
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


def _criterion(number: int, check):
    def test():
        _accept(number, check)

    label = _NAMES.get(check.__name__, check.__name__.strip("_"))
    test.__name__ = test.__qualname__ = f"test_criterion_{number}_{label}"
    return test


for _number, _check in enumerate(CHECKS, 1):
    _test = _criterion(_number, _check)
    globals()[_test.__name__] = _test
del _number, _check, _test
