"""Census runs against the engine goldens.

Every census arm the paper's artifacts read -- Table 4's round-to-nearest
arms at full and at tuned precision with memoization, and the jamming
arm behind Figures 5-8 -- on every scene, plus one Gauss-Seidel and one
warm-started run, must reproduce the recorded per-step digests and
trivialization counts exactly (``tests/engine_goldens.py`` says what is
recorded and how).  The census-free goldens are checked where the fast
paths are tested: ``test_soa_batch``, ``test_scatter_plan`` and
``test_narrowphase``.
"""

import pytest

from repro.workloads import SCENARIO_NAMES

from .engine_goldens import (CENSUS_ARMS, SOLVER_VARIANTS,
                             assert_census_matches, host, load,
                             requires_golden_host, run_census_jobs)

pytestmark = requires_golden_host

GOLDENS = load()


@pytest.fixture(scope="module")
def census_results():
    return run_census_jobs()


def test_goldens_name_their_host():
    recorded = GOLDENS["host"]
    assert recorded["AVX2"] and recorded["FMA3"]
    assert set(recorded) == set(host())


@pytest.mark.parametrize("arm", sorted(CENSUS_ARMS))
@pytest.mark.parametrize("scene", SCENARIO_NAMES)
def test_census_arm_matches_goldens(census_results, scene, arm):
    assert_census_matches(census_results[("census", scene, arm)],
                          GOLDENS["census"][scene][arm])


@pytest.mark.parametrize("variant", sorted(SOLVER_VARIANTS))
def test_solver_variant_matches_goldens(census_results, variant):
    assert_census_matches(census_results[("solver", variant)],
                          GOLDENS["solver"][variant])
