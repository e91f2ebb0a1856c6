import pytest

from epilattice import particle


@pytest.fixture(autouse=True)
def _fresh_chain_plans():
    # absorb_mean_field caches per-cell plans; a plan left by another test
    # (built at a monkeypatched EXPONENTIAL_BLOCK, say) must not decide
    # what this one sees
    particle._chain_plan.cache_clear()
    yield
    particle._chain_plan.cache_clear()
