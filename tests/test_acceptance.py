"""End-to-end quantitative gate: every criterion must pass at full size."""
import pytest

from jsqldp.acceptance import CRITERIA


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, criterion):
    passed, detail = criterion()
    assert passed, detail
