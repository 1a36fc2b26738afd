import pytest

from tourney_lab import core


@pytest.fixture
def block_plan(monkeypatch):
    """Cut the row blocks of every reader of a draw at a given number of edges.

    ``block_plan(None)`` keeps the default plan.  The cached plan is cleared
    before and after, so no other test sees the patched one.
    """

    def cut(block_edges):
        core._row_blocks.cache_clear()
        if block_edges is not None:
            monkeypatch.setattr(core, "_BLOCK_EDGES", block_edges)

    yield cut
    core._row_blocks.cache_clear()
